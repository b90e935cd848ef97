package btree

import (
	"encoding/binary"
	"fmt"

	"repro/internal/storage"
)

// Page layout
//
// Every node occupies exactly one page:
//
//	offset 0      type byte (leaf or internal)
//	offset 1..3   cell count (uint16)
//	offset 3..5   freeStart (uint16): lowest byte used by cell data;
//	              cells grow downward from the end of the page
//	offset 5..13  leaf: next-leaf page id; internal: leftmost child id
//	offset 13..   slot array: cell count × uint16 offsets, kept in key order
//
// Leaf cell:     keyLen uint16 | valLen uint16 | key | value
// Internal cell: keyLen uint16 | child int64   | key
//
// An internal node with cells (k_0,c_0)…(k_n-1,c_n-1) and leftmost child L
// routes key ranges: L holds keys < k_0; c_i holds keys in [k_i, k_i+1).
const (
	pageTypeLeaf     = 1
	pageTypeInternal = 2

	offType      = 0
	offNumCells  = 1
	offFreeStart = 3
	offAux       = 5 // next leaf / leftmost child
	headerSize   = 13

	slotSize = 2

	leafCellHeader     = 4
	internalCellHeader = 10
)

// node wraps a page buffer with typed accessors: a pinned pool frame or a
// cursor's leaf copy when read, the builder's own buffer when written. It
// performs no pinning itself; the tree manages Get/Put around node
// lifetimes.
type node struct {
	id   storage.PageID
	data []byte
}

func (n node) typ() byte      { return n.data[offType] }
func (n node) isLeaf() bool   { return n.data[offType] == pageTypeLeaf }
func (n node) numCells() int  { return int(binary.BigEndian.Uint16(n.data[offNumCells:])) }
func (n node) freeStart() int { return int(binary.BigEndian.Uint16(n.data[offFreeStart:])) }

func (n node) setNumCells(v int) { binary.BigEndian.PutUint16(n.data[offNumCells:], uint16(v)) }
func (n node) setFreeStart(v int) {
	binary.BigEndian.PutUint16(n.data[offFreeStart:], uint16(v))
}

func (n node) aux() storage.PageID {
	return storage.PageID(int64(binary.BigEndian.Uint64(n.data[offAux:])))
}

func (n node) setAux(id storage.PageID) {
	binary.BigEndian.PutUint64(n.data[offAux:], uint64(int64(id)))
}

func initNode(data []byte, typ byte) {
	for i := range data[:headerSize] {
		data[i] = 0
	}
	data[offType] = typ
	binary.BigEndian.PutUint16(data[offNumCells:], 0)
	binary.BigEndian.PutUint16(data[offFreeStart:], uint16(len(data)))
	n := node{data: data}
	n.setAux(storage.InvalidPageID)
}

func (n node) slot(i int) int {
	return int(binary.BigEndian.Uint16(n.data[headerSize+i*slotSize:]))
}

func (n node) setSlot(i, off int) {
	binary.BigEndian.PutUint16(n.data[headerSize+i*slotSize:], uint16(off))
}

// key returns the key of cell i (aliases page memory).
func (n node) key(i int) []byte {
	off := n.slot(i)
	keyLen := int(binary.BigEndian.Uint16(n.data[off:]))
	var start int
	if n.isLeaf() {
		start = off + leafCellHeader
	} else {
		start = off + internalCellHeader
	}
	return n.data[start : start+keyLen]
}

// value returns the value of leaf cell i (aliases page memory).
func (n node) value(i int) []byte {
	off := n.slot(i)
	keyLen := int(binary.BigEndian.Uint16(n.data[off:]))
	valLen := int(binary.BigEndian.Uint16(n.data[off+2:]))
	start := off + leafCellHeader + keyLen
	return n.data[start : start+valLen]
}

// child returns the child page id of internal cell i.
func (n node) child(i int) storage.PageID {
	off := n.slot(i)
	return storage.PageID(int64(binary.BigEndian.Uint64(n.data[off+2:])))
}

// cellSize returns the byte footprint of cell i.
func (n node) cellSize(i int) int {
	off := n.slot(i)
	keyLen := int(binary.BigEndian.Uint16(n.data[off:]))
	if n.isLeaf() {
		valLen := int(binary.BigEndian.Uint16(n.data[off+2:]))
		return leafCellHeader + keyLen + valLen
	}
	return internalCellHeader + keyLen
}

// leafCellSize returns the footprint a (key, value) cell would need.
func leafCellSize(key, value []byte) int { return leafCellHeader + len(key) + len(value) }

// internalCellSize returns the footprint a separator cell would need.
func internalCellSize(key []byte) int { return internalCellHeader + len(key) }

// insertLeafCell inserts (key, value) as cell index i, shifting slots.
// The caller must have verified space.
func (n node) insertLeafCell(i int, key, value []byte) {
	size := leafCellSize(key, value)
	off := n.freeStart() - size
	binary.BigEndian.PutUint16(n.data[off:], uint16(len(key)))
	binary.BigEndian.PutUint16(n.data[off+2:], uint16(len(value)))
	copy(n.data[off+leafCellHeader:], key)
	copy(n.data[off+leafCellHeader+len(key):], value)
	n.setFreeStart(off)
	n.openSlot(i, off)
}

// insertInternalCell inserts (key, child) as cell index i.
func (n node) insertInternalCell(i int, key []byte, child storage.PageID) {
	size := internalCellSize(key)
	off := n.freeStart() - size
	binary.BigEndian.PutUint16(n.data[off:], uint16(len(key)))
	binary.BigEndian.PutUint64(n.data[off+2:], uint64(int64(child)))
	copy(n.data[off+internalCellHeader:], key)
	n.setFreeStart(off)
	n.openSlot(i, off)
}

// openSlot makes room at slot index i pointing to cell offset off.
func (n node) openSlot(i, off int) {
	num := n.numCells()
	base := headerSize + i*slotSize
	copy(n.data[base+slotSize:headerSize+(num+1)*slotSize], n.data[base:headerSize+num*slotSize])
	n.setSlot(i, off)
	n.setNumCells(num + 1)
}

// validateNode checks that n is a leaf or internal node whose slot array
// and cells all lie inside its page; used by Validate.
func (n node) validateNode() error {
	if n.typ() != pageTypeLeaf && n.typ() != pageTypeInternal {
		return fmt.Errorf("btree: page %d has bad type %d", n.id, n.typ())
	}
	num, free, pageSize := n.numCells(), n.freeStart(), len(n.data)
	if headerSize+num*slotSize > free {
		return fmt.Errorf("btree: page %d slots overlap cells", n.id)
	}
	if free > pageSize {
		return fmt.Errorf("btree: page %d freeStart %d beyond page", n.id, free)
	}
	cellHeader := internalCellHeader
	if n.isLeaf() {
		cellHeader = leafCellHeader
	}
	for i := 0; i < num; i++ {
		// The header bound comes first: cellSize reads the lengths there.
		if off := n.slot(i); off < free || off+cellHeader > pageSize || off+n.cellSize(i) > pageSize {
			return fmt.Errorf("btree: page %d cell %d out of bounds", n.id, i)
		}
	}
	return nil
}
