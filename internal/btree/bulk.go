package btree

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/storage"
)

// fillPercent is how full BulkLoad packs each node. 90 mirrors common
// bulk-load defaults; every page count pinned in the tests was recorded
// at it.
const fillPercent = 90

// BulkLoad builds a tree bottom-up from entries in strictly ascending key
// order, packing leaves left to right into pool's pager, which must be
// empty. Each node is written straight to the pager, once, as soon as it
// is complete; pool only serves the tree's reads afterwards. Two locality
// properties matter for the OIF's cost profile and mirror a naturally
// grown Berkeley DB file:
//
//   - consecutive leaves occupy consecutive pages, so RoI range scans are
//     charged sequential misses after one positioning access;
//   - every internal page is written immediately after the children it
//     covers, so the final descent hop (parent -> leaf) stays within
//     storage.NearWindow pages — a short seek, not a full one.
//
// next must return one entry per call and ok=false at the end.
func BulkLoad(pool *storage.BufferPool, next func() (key, value []byte, ok bool, err error)) (*BTree, error) {
	pager := pool.Pager()
	if pager.NumPages() != 0 {
		return nil, errors.New("btree: BulkLoad requires an empty pager")
	}
	if _, err := pager.Allocate(); err != nil { // metaPageID, written last
		return nil, err
	}

	pageSize := pager.PageSize()
	b := &bulkBuilder{
		pager:  pager,
		budget: (pageSize - headerSize) * fillPercent / 100,
		max:    pageSize - headerSize - 2*slotSize,
		leaf:   node{id: metaPageID, data: make([]byte, pageSize)},
		inner:  make([]byte, pageSize),
	}

	var prevKey []byte
	n := 0
	for {
		key, value, ok, err := next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if prevKey != nil && bytes.Compare(prevKey, key) >= 0 {
			return nil, fmt.Errorf("btree: bulk keys not strictly ascending at entry %d", n)
		}
		prevKey = append(prevKey[:0], key...)
		if err := b.addEntry(key, value); err != nil {
			return nil, err
		}
		n++
	}
	rootID, err := b.finish()
	if err != nil {
		return nil, err
	}
	meta := make([]byte, pageSize)
	putU64(meta[offMetaMagic:], metaMagic)
	putU64(meta[offMetaRoot:], uint64(int64(rootID)))
	if err := pager.WritePage(metaPageID, meta); err != nil {
		return nil, err
	}
	if err := pager.Sync(); err != nil {
		return nil, err
	}
	return &BTree{pool: pool, root: rootID}, nil
}

// childRef points a parent level at a completed child page.
type childRef struct {
	firstKey []byte
	id       storage.PageID
}

// levelBuilder accumulates one internal node per tree level.
type levelBuilder struct {
	leftmost storage.PageID
	firstKey []byte
	cells    []childRef
	used     int
}

// bulkBuilder streams entries into leaves and writes completed nodes,
// emitting each parent right after its last child.
type bulkBuilder struct {
	pager  storage.Pager
	budget int
	max    int

	// leaf is the open leaf, or the closed leaf waiting for its next-leaf
	// link: the next leaf's page id, known once that page is allocated.
	// Its id is metaPageID until the first leaf is opened.
	leaf     node
	leafUsed int
	open     bool

	inner  []byte // the page buffer internal nodes are assembled in
	levels []*levelBuilder
}

func (b *bulkBuilder) addEntry(key, value []byte) error {
	sz := leafCellSize(key, value) + slotSize
	if sz > b.max {
		return fmt.Errorf("%w: entry of %d bytes", ErrKeyTooLarge, sz)
	}
	if !b.open {
		if err := b.openLeaf(); err != nil {
			return err
		}
	} else if b.leafUsed+sz > b.budget && b.leaf.numCells() > 0 {
		if err := b.closeLeaf(); err != nil {
			return err
		}
		if err := b.openLeaf(); err != nil {
			return err
		}
	}
	b.leaf.insertLeafCell(b.leaf.numCells(), key, value)
	b.leafUsed += sz
	return nil
}

// openLeaf allocates the next leaf's page. Its id is the link the closed
// leaf before it waits for, so that leaf is written now.
func (b *bulkBuilder) openLeaf() error {
	id, err := b.pager.Allocate()
	if err != nil {
		return err
	}
	if b.leaf.id != metaPageID {
		if err := b.writeLeaf(id); err != nil {
			return err
		}
	}
	clear(b.leaf.data)
	initNode(b.leaf.data, pageTypeLeaf)
	b.leaf.id, b.leafUsed, b.open = id, 0, true
	return nil
}

// writeLeaf writes the closed leaf with next as its next-leaf link.
func (b *bulkBuilder) writeLeaf(next storage.PageID) error {
	b.leaf.setAux(next)
	return b.pager.WritePage(b.leaf.id, b.leaf.data)
}

// closeLeaf stops the open leaf taking entries and hands it to its parent
// level.
func (b *bulkBuilder) closeLeaf() error {
	b.open = false
	return b.push(0, childRef{firstKey: bytes.Clone(b.leaf.key(0)), id: b.leaf.id})
}

// push hands a completed child to level l's builder, flushing that level's
// node if full.
func (b *bulkBuilder) push(l int, ref childRef) error {
	for len(b.levels) <= l {
		b.levels = append(b.levels, &levelBuilder{leftmost: storage.InvalidPageID})
	}
	lv := b.levels[l]
	if lv.leftmost == storage.InvalidPageID {
		lv.leftmost = ref.id
		lv.firstKey = ref.firstKey
		return nil
	}
	sz := internalCellSize(ref.firstKey) + slotSize
	if lv.used+sz > b.budget && len(lv.cells) > 0 {
		if err := b.flushLevel(l); err != nil {
			return err
		}
		lv.leftmost = ref.id
		lv.firstKey = ref.firstKey
		return nil
	}
	lv.cells = append(lv.cells, ref)
	lv.used += sz
	return nil
}

// flushLevel writes level l's open node and pushes its ref one level up.
func (b *bulkBuilder) flushLevel(l int) error {
	lv := b.levels[l]
	id, err := b.pager.Allocate()
	if err != nil {
		return err
	}
	clear(b.inner)
	nd := node{id: id, data: b.inner}
	initNode(nd.data, pageTypeInternal)
	nd.setAux(lv.leftmost)
	for i, c := range lv.cells {
		nd.insertInternalCell(i, c.firstKey, c.id)
	}
	if err := b.pager.WritePage(id, nd.data); err != nil {
		return err
	}
	ref := childRef{firstKey: lv.firstKey, id: id}
	lv.leftmost = storage.InvalidPageID
	lv.firstKey = nil
	lv.cells = lv.cells[:0]
	lv.used = 0
	return b.push(l+1, ref)
}

// finish writes the last leaf and collapses the level stack to a root.
func (b *bulkBuilder) finish() (storage.PageID, error) {
	if !b.open {
		// No entries: the root is a lone empty leaf.
		if err := b.openLeaf(); err != nil {
			return storage.InvalidPageID, err
		}
		return b.leaf.id, b.writeLeaf(storage.InvalidPageID)
	}
	if err := b.closeLeaf(); err != nil {
		return storage.InvalidPageID, err
	}
	if err := b.writeLeaf(storage.InvalidPageID); err != nil {
		return storage.InvalidPageID, err
	}
	// Flush partial levels upward. A level holding a single child with no
	// siblings pending collapses into that child.
	for l := 0; ; l++ {
		lv := b.levels[l]
		atTop := l == len(b.levels)-1
		if lv.leftmost == storage.InvalidPageID {
			if atTop {
				return storage.InvalidPageID, errors.New("btree: bulk builder finished with no root")
			}
			continue
		}
		if atTop && len(lv.cells) == 0 {
			return lv.leftmost, nil // single child: it is the root
		}
		if err := b.flushLevel(l); err != nil {
			return storage.InvalidPageID, err
		}
	}
}
