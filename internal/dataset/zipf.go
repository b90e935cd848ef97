package dataset

import (
	"math"
	"math/rand"
	"slices"
)

// Zipf samples items 0..n-1 with probability proportional to
// 1/(rank+1)^theta, so item 0 is the most frequent. Unlike math/rand's
// Zipf it accepts any theta >= 0 — the paper sweeps the Zipf order over
// {0, 0.4, 0.8, 1} (§5, "Data"), and theta = 0 degenerates to uniform.
//
// Sampling is inverse transform over the precomputed CDF: a draw u picks
// the first item whose CDF reaches u. A guide table — guide[b] is the
// first item whose CDF reaches b/n — starts the search next to that
// item, so a draw costs a few steps instead of a binary search, and
// picks the same item.
type Zipf struct {
	cdf   []float64
	guide []int32
}

// NewZipf builds a sampler over n items with exponent theta.
func NewZipf(n int, theta float64) *Zipf {
	if n <= 0 {
		n = 1
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	inv := 1.0 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1.0
	guide := make([]int32, n)
	i := 0
	for b := range guide {
		for cdf[i] < float64(b)/float64(n) {
			i++
		}
		guide[b] = int32(i)
	}
	return &Zipf{cdf: cdf, guide: guide}
}

// N returns the number of items.
func (z *Zipf) N() int { return len(z.cdf) }

// Sample draws one item using rng: the first item whose CDF reaches a
// uniform draw u. The guide bucket of u only starts the walk, which
// steps back over items whose CDF still reaches u (u*n may round into
// the next bucket) and on over those whose CDF falls short of it.
func (z *Zipf) Sample(rng *rand.Rand) Item {
	u := rng.Float64()
	i := int(z.guide[min(int(u*float64(len(z.guide))), len(z.guide)-1)])
	for i > 0 && z.cdf[i-1] >= u {
		i--
	}
	for z.cdf[i] < u {
		i++
	}
	return Item(i)
}

// maxRejections bounds SampleDistinct's run of consecutive duplicate
// draws. Under a steep skew fewer than k items may carry a usable share
// of the mass, and rejection would draw forever; past the bound the set
// is finished by the dense sweep. At the generators' default
// configurations the bound is never reached (TestGeneratorsPinned).
const maxRejections = 64

// SampleDistinct draws k distinct items. k must not exceed N; it is
// clamped if it does. For k close to N it falls back to a weighted
// shuffle-free sweep to avoid rejection stalls on tiny vocabularies
// (msnbc has only 17 items), and so does a rejection run that meets
// maxRejections duplicates in a row.
func (z *Zipf) SampleDistinct(rng *rand.Rand, k int) []Item {
	n := len(z.cdf)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	out := make([]Item, 0, k)
	// Rejection sampling is efficient while k << n; a duplicate is found
	// by scanning the at most k items already drawn.
	if k*3 <= n {
		for dups := 0; len(out) < k && dups < maxRejections; {
			it := z.Sample(rng)
			if slices.Contains(out, it) {
				dups++
				continue
			}
			dups = 0
			out = append(out, it)
		}
		if len(out) == k {
			return out
		}
	}
	// Dense fallback: include item i with probability proportional to its
	// weight until k are chosen, looping as needed.
	chosen := make([]bool, n)
	for _, it := range out {
		chosen[it] = true
	}
	for len(out) < k {
		it := z.Sample(rng)
		if !chosen[it] {
			chosen[it] = true
			out = append(out, it)
		} else {
			// Linear probe to the next unchosen item keeps the sweep
			// bounded when only a few remain.
			for d := 1; d < n; d++ {
				j := (int(it) + d) % n
				if !chosen[j] {
					chosen[j] = true
					out = append(out, Item(j))
					break
				}
			}
		}
	}
	return out
}
