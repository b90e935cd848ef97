//go:build !race

package dataset

// Allocation ceilings on collecting records: Add canonicalises into the
// record arena and the generators draw into one reused buffer, so a
// collection allocates per arena chunk, not per record. Built only
// without -race: the detector's instrumentation allocates.

import (
	"bytes"
	"testing"
)

func TestGeneratorAllocCeilings(t *testing.T) {
	msnbc := DefaultMSNBC()
	msnbc.NumRecords = 20000
	cases := []struct {
		name    string
		ceiling float64 // per generated collection of 20 000 records
		run     func() (*Dataset, error)
	}{
		{"GenerateMSWeb", 100, func() (*Dataset, error) {
			return GenerateMSWeb(MSWebConfig{BaseRecords: 2000, Replicas: 10, Seed: 2})
		}},
		{"GenerateMSNBC", 100, func() (*Dataset, error) { return GenerateMSNBC(msnbc) }},
	}
	for _, c := range cases {
		var err error
		allocs := testing.AllocsPerRun(3, func() {
			if _, e := c.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs > c.ceiling {
			t.Errorf("%s: %.0f allocations, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}

	// Add itself: fewer than one allocation per record, amortised over
	// the arena's chunks and the record slice's growth.
	d := New(2000)
	set := []Item{5, 3, 9, 3}
	if allocs := testing.AllocsPerRun(20000, func() {
		if _, e := d.Add(set); e != nil {
			t.Fatal(e)
		}
	}); allocs != 0 {
		t.Errorf("Add: %.0f allocations per record, want under one", allocs)
	}
}

// TestReadAllocCeilings: Read parses each line through one reused buffer
// straight into the dataset, so a file costs the dataset's own
// allocations and the scanner's, not one (or two) per line.
func TestReadAllocCeilings(t *testing.T) {
	d, err := GenerateSynthetic(DefaultSynthetic(20000))
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := Write(&text, d); err != nil {
		t.Fatal(err)
	}
	const ceiling = 100
	allocs := testing.AllocsPerRun(3, func() {
		if _, e := Read(bytes.NewReader(text.Bytes())); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > ceiling {
		t.Errorf("Read of 20 000 records: %.0f allocations, ceiling %d", allocs, ceiling)
	}
}
