package btree

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/storage"
)

// rereadPager returns page `page` with every "value-" in it rewritten as
// "readN-", N its count of reads of that page so far, once armed: each
// read of the page carries other bytes, as a page changed under the tree
// would.
type rereadPager struct {
	storage.Pager
	armed bool
	page  storage.PageID
	reads int
}

func (p *rereadPager) ReadPage(id storage.PageID, buf []byte) error {
	if err := p.Pager.ReadPage(id, buf); err != nil {
		return err
	}
	if p.armed && id == p.page {
		p.reads++
		copy(buf, bytes.ReplaceAll(buf, []byte("value-"), fmt.Appendf(nil, "read%d-", p.reads)))
	}
	return nil
}

// TestCursorCopiesEachLeafReadOnce: a descent onto the leaf the cursor
// holds, under the stamp its copy came from, keeps the copy; a descent
// or a replay onto it after the pool read the page again copies the new
// bytes.
func TestCursorCopiesEachLeafReadOnce(t *testing.T) {
	val := func(i uint32) []byte { return []byte(fmt.Sprintf("value-%05d", i)) }
	built := u32Tree(t, 512, 256, 3000, val)
	rp := &rereadPager{Pager: built.Pool().Pager()}
	pool := storage.NewBufferPool(rp, 64)
	tree, err := Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	// descend seeks key k on a handle the cursor has not used, so the
	// seek cannot replay: it descends from the root.
	descend := func(c *Cursor, k uint32) {
		t.Helper()
		view, err := tree.View(pool)
		if err != nil {
			t.Fatal(err)
		}
		if err := view.SeekCursor(c, u32key(k), BytewiseCompare); err != nil {
			t.Fatal(err)
		}
	}
	value := func(c *Cursor, want string) {
		t.Helper()
		if got := string(c.Value()); got != want {
			t.Fatalf("value %q, want %q", got, want)
		}
	}

	var c Cursor
	descend(&c, 1000)
	value(&c, "value-01000")
	leaf := c.leaf.id
	rp.page, rp.armed = leaf, true

	// The same read: a descent keeps the copy, which a mark in it shows.
	mark := bytes.Index(c.leaf.data, []byte("value-01000"))
	c.leaf.data[mark] = 'V'
	descend(&c, 1000)
	if c.leaf.id != leaf || c.Stamp() != pool.Stamp(leaf) {
		t.Fatalf("the descent rests on leaf %d under stamp %#x, want leaf %d under %#x", c.leaf.id, c.Stamp(), leaf, pool.Stamp(leaf))
	}
	value(&c, "Value-01000")

	// A re-read: the descent copies it.
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	descend(&c, 1000)
	value(&c, "read1-01000")

	// A re-read under a replay: the held leaf is copied again.
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	if err := c.t.SeekCursor(&c, u32key(1001), BytewiseCompare); err != nil {
		t.Fatal(err)
	}
	if c.leaf.id != leaf {
		t.Fatalf("key 1001 is on leaf %d, not key 1000's leaf %d", c.leaf.id, leaf)
	}
	value(&c, "read2-01001")
}
