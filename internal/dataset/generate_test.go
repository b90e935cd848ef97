package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// recordsDigest hashes every record's cardinality and items, in order.
func recordsDigest(d *Dataset) string {
	h := sha256.New()
	var buf []byte
	for _, r := range d.Records() {
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(r.Set)))
		for _, it := range r.Set {
			buf = binary.LittleEndian.AppendUint32(buf, it)
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorsPinned holds what the generators draw to digests
// recorded before their sampling was reworked: a change to the draws —
// a different search start, a different duplicate check, a bound that
// fires on a default configuration — moves every index, page count and
// golden built on them, and shows here first.
func TestGeneratorsPinned(t *testing.T) {
	synthetic := func(seed int64) func() (*Dataset, error) {
		return func() (*Dataset, error) {
			c := DefaultSynthetic(20000)
			c.Seed = seed
			return GenerateSynthetic(c)
		}
	}
	cases := []struct {
		name string
		gen  func() (*Dataset, error)
		want string
	}{
		{"synthetic/seed=1", synthetic(1), "09f035f0f44cdd7aefa9549d30c5f633d7424174514e28f7c338a4715dc1823e"},
		{"synthetic/seed=3", synthetic(3), "94e5f691bf33957cc9db62f39afcc3d6e8c56dc7074783eca7a8a66b41c1b23e"},
		{"msweb", func() (*Dataset, error) { return GenerateMSWeb(DefaultMSWeb()) }, "51bdbe8d12f672bf235b4e1a2c13aea787c4a07a41ca70647dd3fa31679abbb8"},
		{"msnbc/50000", func() (*Dataset, error) {
			c := DefaultMSNBC()
			c.NumRecords = 50000
			return GenerateMSNBC(c)
		}, "21cf69f008e1122752a5bb7d912e25cf0f18b0711fb2be52b34fad9c0ae821dc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			if got := recordsDigest(d); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}

// TestZipfSampleMatchesBinarySearch holds the guide-table walk to the
// plain inverse transform it replaced: the same uniform draw must pick
// the same item, at skews from uniform to all mass on item 0.
func TestZipfSampleMatchesBinarySearch(t *testing.T) {
	for _, n := range []int{1, 2, 17, 294, 2000} {
		for _, theta := range []float64{0, 0.25, 0.8, 1.05, 3, 20} {
			z := NewZipf(n, theta)
			a, b := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
			for i := 0; i < 20000; i++ {
				got := z.Sample(a)
				want := min(sort.SearchFloat64s(z.cdf, b.Float64()), n-1)
				if int(got) != want {
					t.Fatalf("n=%d theta=%g draw %d: item %d, want %d", n, theta, i, got, want)
				}
			}
		}
	}
}

// TestSyntheticSteepSkewFinishes is the regression test for rejection
// sampling without a bound: at a Zipf order where fewer than k items
// carry a usable share of the mass, GenerateSynthetic never returned.
// Now a run of duplicate draws hands the set to the dense sweep.
func TestSyntheticSteepSkewFinishes(t *testing.T) {
	for _, theta := range []float64{8, 20} {
		c := SyntheticConfig{NumRecords: 2000, DomainSize: 2000, MinLen: 20, MaxLen: 20, ZipfTheta: theta, Seed: 1}
		done := make(chan error, 1)
		var d *Dataset
		go func() {
			var err error
			d, err = GenerateSynthetic(c)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("theta=%g: GenerateSynthetic did not return within 10s", theta)
		}
		for i, r := range d.Records() {
			if len(r.Set) != 20 {
				t.Fatalf("theta=%g: record %d has %d distinct items, want 20", theta, i, len(r.Set))
			}
		}
	}
}

// BenchmarkGenerateSynthetic times the §5 dataset at the benchmark's
// size (200 000 records, seed 1).
func BenchmarkGenerateSynthetic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateSynthetic(DefaultSynthetic(200000)); err != nil {
			b.Fatal(err)
		}
	}
}
