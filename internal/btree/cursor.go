package btree

import (
	"slices"

	"repro/internal/storage"
)

// Cursor iterates leaf entries in key order. On arrival at each leaf the
// cursor copies the leaf's page out of the buffer pool, so it holds no
// pins while the caller processes entries (the pool stays free to evict —
// important under the paper's minimal 32 KB cache). Each leaf is therefore
// charged to the access statistics exactly once per visit.
//
// The copy is one page-sized buffer that the cursor reuses from leaf to
// leaf (and, through SeekCursor, from seek to seek), so a warmed-up
// cursor walks the tree without allocating, and a seek that reads one
// entry of a leaf parses one cell, not all of them. Key and Value
// therefore return slices owned by the cursor, valid only until the next
// Next/Seek. The copy is made once per page read: the cursor records the
// pool's stamp of the read it copied (storage.BufferPool.Stamp), and a
// descent or link that lands on that leaf under the same stamp keeps the
// copy, while a re-read of the page is copied afresh.
//
// A built tree has no write method, so nothing invalidates a cursor: the
// leaf it holds stays the tree's leaf for as long as the tree is read.
// That is what lets SeekCursor replay a descent (see there).
type Cursor struct {
	t       *BTree
	leaf    node   // private copy of the current leaf's page, and its id
	stamp   uint64 // the pool read leaf was copied from; 0 before any
	idx     int
	valid   bool
	exhaust bool

	// The descent that reached leaf, while the cursor still holds the
	// leaf that descent ended at (held): the internal page ids from the
	// root down, and the tightest separators it passed on either side,
	// lo <= probe < hi (hasLo / hasHi false where the path has none).
	path         []storage.PageID
	lo, hi       []byte
	hasLo, hasHi bool
	held         bool
}

// Seek positions a fresh cursor at the first entry whose key is >= probe
// under cmp (pass BytewiseCompare for plain key seeks). After Seek, Valid
// reports whether such an entry exists.
func (t *BTree) Seek(probe []byte, cmp Compare) (*Cursor, error) {
	c := &Cursor{}
	if err := t.SeekCursor(c, probe, cmp); err != nil {
		return nil, err
	}
	return c, nil
}

// SeekCursor is Seek into a caller-owned cursor: c is repositioned at the
// first entry whose key is >= probe under cmp, reusing its page buffer so
// repeated seeks (the OIF's id-directed list probes) allocate nothing
// after the first. c may be the zero value or a cursor previously used on
// any tree.
//
// A probe inside the separator bounds of the descent that reached c's
// leaf must descend to that leaf again: each level routes a probe by the
// separators either side of it, and on a valid tree (Validate) the
// deepest bounds on a path are its tightest. Such a reseek replays the
// descent — it requests the same pages in the same order, and searches
// only the leaf copy c holds, copied afresh only if the pool re-read the
// leaf since — so the pool sees exactly the requests a full descent
// makes, at a fraction of the CPU.
func (t *BTree) SeekCursor(c *Cursor, probe []byte, cmp Compare) error {
	if c.t == t && c.held && (!c.hasLo || cmp(probe, c.lo) >= 0) && (!c.hasHi || cmp(probe, c.hi) < 0) {
		return c.replay(probe, cmp)
	}
	c.held, c.hasLo, c.hasHi = false, false, false
	c.path = c.path[:0]
	id := t.root
	for {
		data, err := t.pool.Get(id)
		if err != nil {
			return err
		}
		n := node{id: id, data: data}
		if n.isLeaf() {
			idx, _ := searchNode(n, probe, cmp)
			c.loadLeaf(n, t.pool)
			if err := t.pool.Put(id); err != nil {
				return err
			}
			c.t, c.held, c.idx = t, true, idx
			return c.settle()
		}
		i := childIndex(n, probe, cmp)
		if i > 0 {
			c.lo, c.hasLo = append(c.lo[:0], n.key(i-1)...), true
		}
		if i < n.numCells() {
			c.hi, c.hasHi = append(c.hi[:0], n.key(i)...), true
		}
		c.path = append(c.path, id)
		next := childAt(n, i)
		if err := t.pool.Put(id); err != nil {
			return err
		}
		id = next
	}
}

// replay repeats the page requests of the descent that reached the held
// leaf, then positions within the leaf copy.
func (c *Cursor) replay(probe []byte, cmp Compare) error {
	pool := c.t.pool
	for _, id := range c.path {
		if _, err := pool.Get(id); err != nil {
			return err
		}
		if err := pool.Put(id); err != nil {
			return err
		}
	}
	data, err := pool.Get(c.leaf.id)
	if err != nil {
		return err
	}
	c.loadLeaf(node{id: c.leaf.id, data: data}, pool)
	idx, _ := searchNode(c.leaf, probe, cmp)
	if err := pool.Put(c.leaf.id); err != nil {
		return err
	}
	c.idx = idx
	return c.settle()
}

// First positions a fresh cursor at the smallest entry.
func (t *BTree) First() (*Cursor, error) {
	id := t.root
	for {
		data, err := t.pool.Get(id)
		if err != nil {
			return nil, err
		}
		n := node{id: id, data: data}
		if n.isLeaf() {
			c := &Cursor{t: t}
			c.loadLeaf(n, t.pool)
			if err := t.pool.Put(id); err != nil {
				return nil, err
			}
			c.idx = 0
			return c, c.settle()
		}
		next := n.aux()
		if err := t.pool.Put(id); err != nil {
			return nil, err
		}
		id = next
	}
}

// loadLeaf makes the pinned leaf n, read through pool, the cursor's
// leaf, copying its page into the cursor's buffer unless the buffer
// already holds that same read of it.
func (c *Cursor) loadLeaf(n node, pool *storage.BufferPool) {
	if stamp := pool.Stamp(n.id); n.id != c.leaf.id || stamp != c.stamp {
		c.leaf.id, c.stamp = n.id, stamp
		c.leaf.data = append(c.leaf.data[:0], n.data...)
	}
	c.idx = 0
	c.valid = n.numCells() > 0
	c.exhaust = false
}

// settle advances past an exhausted leaf (a seek can land after a leaf's
// last entry) until the cursor rests on an entry or runs off the end of
// the tree. A leaf reached by its link has no descent to replay.
func (c *Cursor) settle() error {
	for c.idx >= c.leaf.numCells() {
		c.held = false
		next := c.leaf.aux()
		if next == storage.InvalidPageID {
			c.valid = false
			c.exhaust = true
			return nil
		}
		data, err := c.t.pool.Get(next)
		if err != nil {
			return err
		}
		c.loadLeaf(node{id: next, data: data}, c.t.pool)
		if err := c.t.pool.Put(next); err != nil {
			return err
		}
	}
	c.valid = true
	return nil
}

// Stamp returns the stamp of the pool read the cursor's leaf copy was
// made from: Key and Value are bytes of that read.
func (c *Cursor) Stamp() uint64 { return c.stamp }

// Slot returns the current entry's position in its leaf. With Stamp it
// names the entry's bytes: the same stamp and slot, the same Key and
// Value.
func (c *Cursor) Slot() int { return c.idx }

// Valid reports whether the cursor rests on an entry.
func (c *Cursor) Valid() bool { return c.valid && !c.exhaust }

// Key returns the current entry's key. The slice is owned by the cursor
// until the next Next/Seek; its capacity is clipped, so an append cannot
// reach the bytes that follow it in the leaf copy.
func (c *Cursor) Key() []byte { return slices.Clip(c.leaf.key(c.idx)) }

// Value returns the current entry's value, owned like Key.
func (c *Cursor) Value() []byte { return slices.Clip(c.leaf.value(c.idx)) }

// Next advances to the following entry in key order.
func (c *Cursor) Next() error {
	if !c.Valid() {
		return nil
	}
	c.idx++
	return c.settle()
}
