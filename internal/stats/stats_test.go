package stats

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// zipfCounts fabricates an exact rank-frequency curve C/rank^theta.
func zipfCounts(n int, c float64, theta float64) []int64 {
	out := make([]int64, n)
	for i := range out {
		v := int64(math.Round(c / math.Pow(float64(i+1), theta)))
		if v < 1 {
			v = 1
		}
		out[i] = v
	}
	return out
}

func TestFitZipfRecoversExponent(t *testing.T) {
	for _, theta := range []float64{0, 0.4, 0.8, 1.0} {
		got := FitZipf(zipfCounts(500, 1e6, theta))
		if math.Abs(got-theta) > 0.05 {
			t.Errorf("FitZipf(theta=%g) = %g", theta, got)
		}
	}
}

func TestFitZipfDegenerate(t *testing.T) {
	if got := FitZipf(nil); got != 0 {
		t.Errorf("FitZipf(nil) = %g", got)
	}
	if got := FitZipf([]int64{7}); got != 0 {
		t.Errorf("FitZipf(single) = %g", got)
	}
	if got := FitZipf([]int64{5, 5, 5, 5}); got != 0 {
		t.Errorf("FitZipf(flat) = %g", got)
	}
}

// TestProfileOfSupports: items of zero support are not counted, and
// the hottest item's support is the maximum wherever it sits.
func TestProfileOfSupports(t *testing.T) {
	support := []int64{0, 2, 0, 3, 1, 0}
	p := ProfileOfSupports(support)
	if p.Distinct != 3 || p.MaxFreq != 3 {
		t.Fatalf("profile wrong: %+v", p)
	}
	if p.Theta != FitZipf([]int64{3, 2, 1}) {
		t.Fatalf("theta %g, want the fit of the sorted nonzero supports", p.Theta)
	}
	if support[3] != 3 || support[4] != 1 {
		t.Fatalf("support table modified: %v", support)
	}
	if p := ProfileOfSupports(nil); p != (Profile{}) {
		t.Fatalf("empty table profiled as %+v", p)
	}
}

// TestPlanOnGeneratedData exercises the whole pipeline on the paper's
// synthetic generator: a Zipf-0.8 collection must plan the OIF, a
// uniform one the plain inverted file.
func TestPlanOnGeneratedData(t *testing.T) {
	for _, tc := range []struct {
		theta   float64
		wantOIF bool
	}{
		{0.8, true},
		{1.0, true},
		{0.0, false},
	} {
		d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
			NumRecords: 5000, DomainSize: 500, MinLen: 2, MaxLen: 12,
			ZipfTheta: tc.theta, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := ProfileOfSupports(d.Support())
		plan := p.Plan()
		if plan.UseOIF != tc.wantOIF {
			t.Errorf("theta=%g: plan.UseOIF = %v (fitted theta %.2f)", tc.theta, plan.UseOIF, p.Theta)
		}
		if plan.UseOIF {
			if plan.BlockPostings < minBlockPostings || plan.BlockPostings > maxBlockPostings {
				t.Errorf("theta=%g: frontier block %d outside [%d,%d]", tc.theta,
					plan.BlockPostings, minBlockPostings, maxBlockPostings)
			}
			if plan.BlockPostings&(plan.BlockPostings-1) != 0 {
				t.Errorf("theta=%g: frontier block %d not a power of two", tc.theta, plan.BlockPostings)
			}
		} else if plan.BlockPostings != 0 {
			t.Errorf("theta=%g: uniform plan sized a frontier: %+v", tc.theta, plan)
		}
	}
}

// TestTinyDomainNeverSkewed guards the planner against fitting noise on
// a handful of distinct items.
func TestTinyDomainNeverSkewed(t *testing.T) {
	support := make([]int64, 4)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		support[rng.Intn(4)]++
	}
	if p := ProfileOfSupports(support); p.Skewed() {
		t.Fatalf("4-item domain profiled as skewed: %+v", p)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 17: 32, 64: 64}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
