package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/storage"
)

func bulkFromPairs(t testing.TB, pageSize, poolPages int, keys, vals [][]byte) *BTree {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemPager(pageSize), poolPages)
	i := 0
	tree, err := BulkLoad(pool, func() ([]byte, []byte, bool, error) {
		if i == len(keys) {
			return nil, nil, false, nil
		}
		k, v := keys[i], vals[i]
		i++
		return k, v, true, nil
	})
	if err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	return tree
}

func TestBulkLoadMatchesInserts(t *testing.T) {
	const n = 8000
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = u32key(uint32(i * 3))
		vals[i] = []byte(fmt.Sprintf("value-%d", i))
	}
	tree := bulkFromPairs(t, 512, 128, keys, vals)
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ln, err := tree.Len()
	if err != nil {
		t.Fatal(err)
	}
	if ln != n {
		t.Fatalf("Len = %d, want %d", ln, n)
	}
	for i := 0; i < n; i += 97 {
		got, found, err := lookup(tree, keys[i])
		if err != nil || !found {
			t.Fatalf("lookup(%d): found %v, %v", i, found, err)
		}
		if !bytes.Equal(got, vals[i]) {
			t.Fatalf("lookup(%d) = %q", i, got)
		}
	}
	// Ordered scan returns every key in order.
	c, err := tree.First()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !c.Valid() {
			t.Fatalf("cursor exhausted at %d", i)
		}
		if !bytes.Equal(c.Key(), keys[i]) {
			t.Fatalf("scan at %d has wrong key", i)
		}
		if err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tree := bulkFromPairs(t, 256, 16, nil, nil)
	if _, found, err := lookup(tree, []byte("x")); err != nil || found {
		t.Fatalf("lookup on empty bulk tree: found %v, %v", found, err)
	}
	c, err := tree.First()
	if err != nil {
		t.Fatal(err)
	}
	if c.Valid() {
		t.Fatal("cursor valid on empty tree")
	}
}

func TestBulkLoadSingle(t *testing.T) {
	tree := bulkFromPairs(t, 256, 16, [][]byte{[]byte("k")}, [][]byte{[]byte("v")})
	got, found, err := lookup(tree, []byte("k"))
	if err != nil || !found || string(got) != "v" {
		t.Fatalf("lookup = %q, %v, %v", got, found, err)
	}
}

func TestBulkLoadRejectsUnsortedKeys(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewMemPager(256), 16)
	seq := [][]byte{[]byte("b"), []byte("a")}
	i := 0
	_, err := BulkLoad(pool, func() ([]byte, []byte, bool, error) {
		if i == len(seq) {
			return nil, nil, false, nil
		}
		k := seq[i]
		i++
		return k, []byte("v"), true, nil
	})
	if err == nil {
		t.Fatal("unsorted bulk load succeeded")
	}
}

func TestBulkLoadRejectsDuplicates(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewMemPager(256), 16)
	i := 0
	_, err := BulkLoad(pool, func() ([]byte, []byte, bool, error) {
		if i == 2 {
			return nil, nil, false, nil
		}
		i++
		return []byte("same"), []byte("v"), true, nil
	})
	if err == nil {
		t.Fatal("duplicate bulk load succeeded")
	}
}

// TestBulkLoadLeafLocality is the reason bulk load exists: consecutive
// leaves must occupy consecutive pages, so a range scan after one seek is
// charged sequential misses, not random ones.
func TestBulkLoadLeafLocality(t *testing.T) {
	const n = 20000
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = u32key(uint32(i))
		vals[i] = bytes.Repeat([]byte("v"), 16)
	}
	pager := storage.NewMemPager(4096)
	pool := storage.NewBufferPool(pager, 1024)
	i := 0
	tree, err := BulkLoad(pool, func() ([]byte, []byte, bool, error) {
		if i == n {
			return nil, nil, false, nil
		}
		k, v := keys[i], vals[i]
		i++
		return k, v, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	small := storage.NewBufferPool(pager, 8)
	if err := tree.SetPool(small); err != nil {
		t.Fatal(err)
	}
	// Scan a 2000-entry range: after positioning, nearly all leaf loads
	// must be sequential.
	c, err := tree.Seek(u32key(5000), BytewiseCompare)
	if err != nil {
		t.Fatal(err)
	}
	small.ResetStats()
	for j := 0; j < 2000 && c.Valid(); j++ {
		if err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	st := small.Stats()
	if st.Misses < 5 {
		t.Fatalf("scan touched only %d pages; expected a real range", st.Misses)
	}
	if st.SeqMisses < st.Misses-2 {
		t.Fatalf("leaf locality broken: %v (want almost all sequential)", st)
	}
}

func TestBulkLoadCustomComparatorSeeks(t *testing.T) {
	// Bulk-loaded trees must honour probe comparators: separators are
	// first keys, not copies of probes.
	const n = 5000
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = u32key(uint32(i * 10))
		vals[i] = []byte("v")
	}
	tree := bulkFromPairs(t, 512, 64, keys, vals)
	cmp := func(probe, key []byte) int {
		p := binary.BigEndian.Uint32(probe)
		k := binary.BigEndian.Uint32(key)
		switch {
		case p < k:
			return -1
		case p > k:
			return 1
		}
		return 0
	}
	c, err := tree.Seek(u32key(25), cmp)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Valid() || binary.BigEndian.Uint32(c.Key()) != 30 {
		t.Fatalf("custom seek landed wrong: valid=%v", c.Valid())
	}
}
