package core

import "slices"

const (
	radixBits = 9 // 200 k ids sort in two passes, and the counts stay in L1
	// radixMinLen is where a counting pass starts to beat slices.Sort:
	// below it the 512-bucket prefix sum per pass outweighs the
	// comparisons saved.
	radixMinLen = 192
)

// sortIDs sorts ids ascending in place. The new-id -> original-id map
// permutes every answer, so this runs once per query over the whole
// answer: an LSD radix sort — one stable counting pass per radixBits of
// the largest id present — keeps it linear. *scratch is the second
// buffer of the passes; it grows to the longest slice seen and is
// reused, so a warm caller allocates nothing.
func sortIDs(ids []uint32, scratch *[]uint32) {
	if len(ids) < radixMinLen {
		slices.Sort(ids)
		return
	}
	if cap(*scratch) < len(ids) {
		*scratch = make([]uint32, len(ids))
	}
	src, dst := ids, (*scratch)[:len(ids)]
	top := slices.Max(ids)
	passes := 0
	for shift := 0; shift < 32 && top>>shift != 0; shift += radixBits {
		var next [1 << radixBits]int
		for _, v := range src {
			next[(v>>shift)&(1<<radixBits-1)]++
		}
		sum := 0
		for d, n := range next {
			next[d], sum = sum, sum+n
		}
		for _, v := range src {
			d := (v >> shift) & (1<<radixBits - 1)
			dst[next[d]] = v
			next[d]++
		}
		src, dst = dst, src
		passes++
	}
	if passes%2 == 1 { // the sorted run ended in the scratch
		copy(ids, src)
	}
}
