// Package btree implements a disk-resident B+-tree over the storage buffer
// pool. It is the physical structure of the paper's OIF: every inverted-
// list block is one (key, value) entry, where the key is the concatenation
// item‖tag‖lastRecordID and the value is the compressed block (§3, "B-tree
// indexing for inverted lists"; §5 stores all blocks in a single B+-tree,
// as in the authors' Berkeley DB implementation). The unordered-B-tree
// ablation of §5 reuses the same structure with a different key.
//
// A tree is written once: BulkLoad builds it bottom-up from sorted entries,
// writing each node straight to the pager as the node completes, as the
// paper bulk-builds the OIF and folds updates in by rebuilding (§4.4).
// After that the tree is only read, every page through the buffer pool;
// BTree has no write method, so a reader's tree never changes under it.
//
// Keys are opaque byte strings ordered bytewise. Seeks additionally accept
// a caller-supplied comparator so the OIF can position by (item, recordID)
// probes that ignore the tag bytes — valid because within one item's key
// range tag order and record-id order coincide (that is the point of the
// OIF's global ordering).
package btree

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/storage"
)

// Compare is a probe comparator: it returns <0, 0, >0 as probe sorts
// before, equal to, or after key. It must be consistent with the bytewise
// order of the stored keys over the key subset it is used against.
type Compare func(probe, key []byte) int

// BytewiseCompare is the standard key order.
func BytewiseCompare(probe, key []byte) int { return bytes.Compare(probe, key) }

// ErrKeyTooLarge reports an entry that cannot fit in a node.
var ErrKeyTooLarge = errors.New("btree: entry too large for page size")

const (
	metaPageID   = storage.PageID(0)
	metaMagic    = 0x0B7EE000
	offMetaMagic = 0
	offMetaRoot  = 8
)

// BTree is a read-only disk B+-tree, built by BulkLoad or reopened by
// Open. All page reads flow through its buffer pool, which is how
// experiments meter it.
type BTree struct {
	pool *storage.BufferPool
	root storage.PageID
}

// unpin releases a page pin from a defer, surfacing a pin-accounting
// error through *err unless the caller already failed with one.
func unpin(pool *storage.BufferPool, id storage.PageID, err *error) {
	if e := pool.Put(id); e != nil && *err == nil {
		*err = e
	}
}

// Open attaches to a tree previously built by BulkLoad in pool's pager.
func Open(pool *storage.BufferPool) (t *BTree, err error) {
	if pool.Pager().NumPages() == 0 {
		return nil, errors.New("btree: Open on empty pager")
	}
	meta, err := pool.Get(metaPageID)
	if err != nil {
		return nil, err
	}
	defer unpin(pool, metaPageID, &err)
	if getU64(meta[offMetaMagic:]) != metaMagic {
		return nil, errors.New("btree: bad meta page magic")
	}
	return &BTree{pool: pool, root: storage.PageID(int64(getU64(meta[offMetaRoot:])))}, nil
}

func putU64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// Pool returns the tree's buffer pool.
func (t *BTree) Pool() *storage.BufferPool { return t.pool }

// SetPool swaps the buffer pool, keeping the same underlying pager: the
// harness measures queries with the paper's minimal 32 KB pool. A pool
// holds no writes, so the previous one is simply dropped.
func (t *BTree) SetPool(pool *storage.BufferPool) error {
	if pool.Pager() != t.pool.Pager() {
		return errors.New("btree: SetPool requires the same backing pager")
	}
	t.pool = pool
	return nil
}

// View returns a handle on the same tree pages through a different buffer
// pool (which must wrap the same pager). Views enable concurrent readers:
// the pages are immutable once built, so giving each goroutine its own
// pool isolates all mutable state (cache frames, LRU, statistics).
func (t *BTree) View(pool *storage.BufferPool) (*BTree, error) {
	if pool.Pager() != t.pool.Pager() {
		return nil, errors.New("btree: View requires the same backing pager")
	}
	return &BTree{pool: pool, root: t.root}, nil
}

// searchNode returns the index of the first cell whose key is >= probe
// under cmp, and whether an exact match was found.
func searchNode(n node, probe []byte, cmp Compare) (int, bool) {
	lo, hi := 0, n.numCells()
	for lo < hi {
		mid := (lo + hi) / 2
		c := cmp(probe, n.key(mid))
		switch {
		case c == 0:
			return mid, true
		case c < 0:
			hi = mid
		default:
			lo = mid + 1
		}
	}
	return lo, false
}

// childIndex returns which child of internal node n a probe descends into:
// 0 means the leftmost child, i>0 means cell i-1's child.
func childIndex(n node, probe []byte, cmp Compare) int {
	// First cell whose key is strictly greater than probe.
	lo, hi := 0, n.numCells()
	for lo < hi {
		mid := (lo + hi) / 2
		if cmp(probe, n.key(mid)) >= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func childAt(n node, idx int) storage.PageID {
	if idx == 0 {
		return n.aux()
	}
	return n.child(idx - 1)
}

// Len counts entries with a full scan (test/diagnostic helper).
func (t *BTree) Len() (int, error) {
	c, err := t.First()
	if err != nil {
		return 0, err
	}
	n := 0
	for c.Valid() {
		n++
		if err := c.Next(); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// Height returns the number of levels (1 = a lone leaf root).
func (t *BTree) Height() (int, error) {
	h := 1
	id := t.root
	for {
		data, err := t.pool.Get(id)
		if err != nil {
			return 0, err
		}
		n := node{id: id, data: data}
		leaf := n.isLeaf()
		next := storage.InvalidPageID
		if !leaf {
			next = n.aux()
		}
		if err := t.pool.Put(id); err != nil {
			return 0, err
		}
		if leaf {
			return h, nil
		}
		h++
		id = next
	}
}

// Validate checks the whole tree's structure: every page reachable from
// the root is a well-formed node inside the pager, reached exactly once;
// every cell lies inside its page; keys ascend within each node and
// within the separator bounds its parent routes to it; all leaves lie at
// one depth; and the leaf links chain the leaves left to right and end
// after the last. It reads each page once, pinning one at a time.
//
// A tree that passes is one every read path terminates on and stays
// inside its pages over, and one whose deepest separators on a path are
// its tightest — what SeekCursor's replay relies on. Loading a snapshot
// calls it before the tree serves a query.
func (t *BTree) Validate() error {
	type pending struct {
		id     storage.PageID
		lo, hi []byte // the separator bounds routed to the page; nil = none
		depth  int
	}
	numPages := t.pool.Pager().NumPages()
	visited := make([]bool, numPages)
	stack := []pending{{id: t.root, depth: 1}}
	leafDepth := 0
	link := storage.InvalidPageID // the last leaf's link, until the next leaf checks it
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.id <= metaPageID || int64(p.id) >= numPages {
			return fmt.Errorf("btree: page id %d outside the tree's pages", p.id)
		}
		if visited[p.id] {
			return fmt.Errorf("btree: page %d reached twice", p.id)
		}
		visited[p.id] = true
		data, err := t.pool.Get(p.id)
		if err != nil {
			return err
		}
		n := node{id: p.id, data: data}
		// examine inspects the pinned node and queues its children; the
		// pin is released before any child is read.
		examine := func() error {
			if err := n.validateNode(); err != nil {
				return err
			}
			num := n.numCells()
			for i := 0; i < num; i++ {
				k := n.key(i)
				if i > 0 && bytes.Compare(n.key(i-1), k) >= 0 {
					return fmt.Errorf("btree: page %d keys out of order at cell %d", p.id, i)
				}
				if p.lo != nil && bytes.Compare(k, p.lo) < 0 {
					return fmt.Errorf("btree: page %d key below lower bound", p.id)
				}
				if p.hi != nil && bytes.Compare(k, p.hi) >= 0 {
					return fmt.Errorf("btree: page %d key above upper bound", p.id)
				}
			}
			if n.isLeaf() {
				switch {
				case leafDepth == 0:
					leafDepth = p.depth
				case p.depth != leafDepth:
					return fmt.Errorf("btree: leaf %d at depth %d, others at %d", p.id, p.depth, leafDepth)
				case link != p.id:
					return fmt.Errorf("btree: leaf chain links to page %d, not the next leaf %d", link, p.id)
				}
				link = n.aux()
				return nil
			}
			// Children pop leftmost first: push them right to left.
			hi := p.hi
			for i := num; i >= 0; i-- {
				lo := p.lo
				if i > 0 {
					lo = bytes.Clone(n.key(i - 1))
				}
				stack = append(stack, pending{id: childAt(n, i), lo: lo, hi: hi, depth: p.depth + 1})
				hi = lo
			}
			return nil
		}
		err = examine()
		if e := t.pool.Put(p.id); err == nil {
			err = e
		}
		if err != nil {
			return err
		}
	}
	if link != storage.InvalidPageID {
		return fmt.Errorf("btree: leaf chain continues past the last leaf to page %d", link)
	}
	return nil
}
