package btree

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/storage"
)

// TestReadFaultsSurfaceFromQueries verifies Seek and Next propagate read
// faults, for a point lookup and for a scan.
func TestReadFaultsSurfaceFromQueries(t *testing.T) {
	tree := u32Tree(t, 256, 256, 2000, func(uint32) []byte { return []byte("v") })
	mem := tree.Pool().Pager()
	// Every read op from a cold pool must eventually fail cleanly.
	for failAt := int64(1); failAt <= 12; failAt++ {
		faulty := storage.NewFaultyPager(mem, failAt)
		pool := storage.NewBufferPool(faulty, 4)
		tr := &BTree{pool: pool, root: tree.root}
		_, _, err := lookup(tr, u32key(777))
		if err != nil && !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("failAt=%d: lookup returned %v", failAt, err)
		}
		c, err := tr.Seek(u32key(0), BytewiseCompare)
		if err == nil {
			for c.Valid() {
				if err = c.Next(); err != nil {
					break
				}
			}
		}
		if err != nil && !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("failAt=%d: scan returned %v", failAt, err)
		}
	}
}

// TestBulkLoadFaults verifies bulk loading propagates faults.
func TestBulkLoadFaults(t *testing.T) {
	for failAt := int64(1); failAt <= 40; failAt += 3 {
		faulty := storage.NewFaultyPager(storage.NewMemPager(256), failAt)
		pool := storage.NewBufferPool(faulty, 8)
		i := 0
		_, err := BulkLoad(pool, func() ([]byte, []byte, bool, error) {
			if i == 500 {
				return nil, nil, false, nil
			}
			k := u32key(uint32(i))
			i++
			return k, []byte("v"), true, nil
		})
		if err == nil {
			if faulty.Tripped() {
				t.Fatalf("failAt=%d: fault fired but BulkLoad succeeded", failAt)
			}
			continue
		}
		if !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("failAt=%d: BulkLoad returned %v", failAt, err)
		}
	}
}

// TestBulkLoadSourceError verifies an error from the entry source aborts
// the load with that error.
func TestBulkLoadSourceError(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewMemPager(256), 8)
	boom := fmt.Errorf("source exploded")
	i := 0
	_, err := BulkLoad(pool, func() ([]byte, []byte, bool, error) {
		if i == 3 {
			return nil, nil, false, boom
		}
		k := u32key(uint32(i))
		i++
		return k, []byte("v"), true, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("BulkLoad returned %v, want source error", err)
	}
}
