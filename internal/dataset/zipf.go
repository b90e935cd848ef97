package dataset

import (
	"math"
	"math/rand"
	"sort"
)

// Zipf samples items 0..n-1 with probability proportional to
// 1/(rank+1)^theta, so item 0 is the most frequent. Unlike math/rand's
// Zipf it accepts any theta >= 0 — the paper sweeps the Zipf order over
// {0, 0.4, 0.8, 1} (§5, "Data"), and theta = 0 degenerates to uniform.
//
// Sampling uses inverse transform over the precomputed CDF (binary
// search), which is exact and fast enough for the dataset sizes used here.
type Zipf struct {
	cdf []float64
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
	return &Zipf{cdf: cdf}
}

// N returns the number of items.
func (z *Zipf) N() int { return len(z.cdf) }

// Sample draws one item using rng.
func (z *Zipf) Sample(rng *rand.Rand) Item {
	u := rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return Item(i)
}

// SampleDistinct draws k distinct items. k must not exceed N; it is
// clamped if it does. For k close to N it falls back to a weighted
// shuffle-free sweep to avoid rejection stalls on tiny vocabularies
// (msnbc has only 17 items).
func (z *Zipf) SampleDistinct(rng *rand.Rand, k int) []Item {
	n := len(z.cdf)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	// Rejection sampling is efficient while k << n.
	if k*3 <= n {
		seen := make(map[Item]struct{}, k)
		out := make([]Item, 0, k)
		for len(out) < k {
			it := z.Sample(rng)
			if _, dup := seen[it]; dup {
				continue
			}
			seen[it] = struct{}{}
			out = append(out, it)
		}
		return out
	}
	// Dense fallback: include item i with probability proportional to its
	// weight until k are chosen, looping as needed.
	out := make([]Item, 0, k)
	chosen := make([]bool, n)
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
