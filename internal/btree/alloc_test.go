//go:build !race

package btree

import (
	"bytes"
	"testing"
)

// TestReseekZeroAllocs is the B-tree's allocation gate: once a cursor
// has sized its leaf copy, descent path and separator bounds, neither a
// reseek it replays nor a full descent allocates, and neither does a
// warm pool's Get / Put. It is compiled out under the race detector,
// whose instrumentation allocates; `make alloc-check` runs it.
func TestReseekZeroAllocs(t *testing.T) {
	const n = 5000
	tree := u32Tree(t, 512, 64, n, func(uint32) []byte { return bytes.Repeat([]byte("v"), 16) })
	var c Cursor
	probes := map[uint32][]byte{}
	for _, k := range []uint32{10, n - 20, n - 11, n - 10} {
		probes[k] = u32key(k)
	}
	seek := func(k uint32) {
		if err := tree.SeekCursor(&c, probes[k], BytewiseCompare); err != nil {
			t.Fatal(err)
		}
	}
	seek(10)
	seek(n - 10)

	if allocs := testing.AllocsPerRun(100, func() { seek(n - 11) }); allocs != 0 {
		t.Errorf("a replayed reseek: %.2f allocs, want 0", allocs)
	}
	if !c.held {
		t.Fatal("the reseek within the leaf did not keep its descent")
	}
	far := uint32(10) // alternates with n-20, a leaf far away
	if allocs := testing.AllocsPerRun(100, func() { seek(far); far = n - 10 - far }); allocs != 0 {
		t.Errorf("a full reseek: %.2f allocs, want 0", allocs)
	}

	pool := tree.Pool()
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := pool.Get(tree.root); err != nil {
			t.Fatal(err)
		}
		if err := pool.Put(tree.root); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a warm pool's Get / Put: %.2f allocs, want 0", allocs)
	}
}
