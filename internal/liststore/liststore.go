// Package liststore implements the physical layout of the classic
// inverted file: each item's compressed inverted list stored contiguously
// on disk, with a memory-resident vocabulary mapping items to their
// extents. This is the paper's IF baseline implementation scheme (§5):
// "each tuple has as key value an item o from I and as data value the
// whole inverted list associated with o" — and, crucially, "Berkeley DB
// always retrieves the whole tuple, i.e. there is no way to retrieve a
// part of the inverted list".
//
// Reading a list therefore streams every one of its pages through the
// buffer pool, which charges one sequential miss per page after the
// initial (random) positioning — exactly the IF cost profile the paper
// measures. Pages are written once, by a Writer, straight to the pager;
// the pool only reads them.
package liststore

import (
	"errors"
	"fmt"

	"repro/internal/storage"
)

// Extent locates one list in the page file. Lists are packed contiguously
// — a list may begin mid-page, as Berkeley DB packs small tuples into
// shared pages — so an extent is a (page, offset, length) triple.
type Extent struct {
	StartPage storage.PageID
	StartByte int   // offset within StartPage
	ByteLen   int64 // 0 for an absent/empty list
}

// Pages returns the number of pages the extent touches.
func (e Extent) Pages(pageSize int) int64 {
	if e.ByteLen == 0 {
		return 0
	}
	first := int64(e.StartByte)
	return (first+e.ByteLen+int64(pageSize)-1)/int64(pageSize) - first/int64(pageSize)
}

// Store is a write-once collection of contiguous byte extents, one per
// item. Build all lists with a Writer, then read them back by item.
type Store struct {
	pool    *storage.BufferPool
	extents []Extent
	sealed  bool
}

// ErrNotSealed reports reads before the writer finished.
var ErrNotSealed = errors.New("liststore: store not sealed")

// ErrNoList reports an item with no stored list.
var ErrNoList = errors.New("liststore: item has no list")

// New returns an empty store over pool with capacity for domainSize items.
// The pool's pager must be empty (page ids are assumed to start at 0).
func New(pool *storage.BufferPool, domainSize int) (*Store, error) {
	if pool.Pager().NumPages() != 0 {
		return nil, errors.New("liststore: New requires an empty pager")
	}
	ext := make([]Extent, domainSize)
	for i := range ext {
		ext[i].StartPage = storage.InvalidPageID
	}
	return &Store{pool: pool, extents: ext}, nil
}

// SetPool swaps the buffer pool, keeping the same pager (see
// btree.SetPool).
func (s *Store) SetPool(pool *storage.BufferPool) error {
	if pool.Pager() != s.pool.Pager() {
		return errors.New("liststore: SetPool requires the same backing pager")
	}
	s.pool = pool
	return nil
}

// Pool returns the current buffer pool.
func (s *Store) Pool() *storage.BufferPool { return s.pool }

// Writer appends lists back to back, packing them contiguously into
// pages. Each list stays contiguous on disk (the paper's IF layout); a
// new list continues on the current partially filled page. The current
// page is kept in memory and written to the pager once, when it is full
// or at Close.
type Writer struct {
	s      *Store
	pager  storage.Pager
	cur    storage.PageID // current page, InvalidPageID before first write
	page   []byte         // the current page's bytes
	used   int            // bytes used on the current page
	closed bool
}

// NewWriter starts bulk-building the store's lists.
func (s *Store) NewWriter() (*Writer, error) {
	if s.sealed {
		return nil, errors.New("liststore: store already sealed")
	}
	pager := s.pool.Pager()
	return &Writer{s: s, pager: pager, cur: storage.InvalidPageID, page: make([]byte, pager.PageSize())}, nil
}

// WriteList stores data as item's list. Items may be written in any
// order, but each item at most once. An empty list is recorded with a
// zero-length extent and occupies no pages.
func (w *Writer) WriteList(item uint32, data []byte) error {
	if w.closed {
		return errors.New("liststore: writer closed")
	}
	if int(item) >= len(w.s.extents) {
		return fmt.Errorf("liststore: item %d outside domain %d", item, len(w.s.extents))
	}
	if w.s.extents[item].StartPage != storage.InvalidPageID || w.s.extents[item].ByteLen > 0 {
		return fmt.Errorf("liststore: duplicate list for item %d", item)
	}
	if len(data) == 0 {
		w.s.extents[item] = Extent{StartPage: storage.InvalidPageID, ByteLen: 0}
		return nil
	}
	ext := Extent{ByteLen: int64(len(data))}
	remaining := data
	first := true
	for len(remaining) > 0 {
		if w.cur == storage.InvalidPageID || w.used == len(w.page) {
			id, err := w.pager.Allocate()
			if err != nil {
				return err
			}
			clear(w.page)
			w.cur = id
			w.used = 0
		}
		if first {
			ext.StartPage = w.cur
			ext.StartByte = w.used
			first = false
		}
		n := copy(w.page[w.used:], remaining)
		remaining = remaining[n:]
		w.used += n
		if w.used == len(w.page) {
			if err := w.pager.WritePage(w.cur, w.page); err != nil {
				return err
			}
		}
	}
	w.s.extents[item] = ext
	return nil
}

// Close writes the partly filled last page and seals the store for
// reading.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	if w.cur != storage.InvalidPageID && w.used < len(w.page) {
		if err := w.pager.WritePage(w.cur, w.page); err != nil {
			return err
		}
	}
	if err := w.pager.Sync(); err != nil {
		return err
	}
	w.closed = true
	w.s.sealed = true
	return nil
}

// Extent returns item's extent (vocabulary lookup; memory-resident, free).
func (s *Store) Extent(item uint32) (Extent, error) {
	if int(item) >= len(s.extents) {
		return Extent{}, fmt.Errorf("liststore: item %d outside domain %d", item, len(s.extents))
	}
	return s.extents[item], nil
}

// ReadList returns a copy of item's full list, streaming all of its pages
// through the buffer pool. Reading an empty list returns (nil, nil).
func (s *Store) ReadList(item uint32) ([]byte, error) {
	if !s.sealed {
		return nil, ErrNotSealed
	}
	ext, err := s.Extent(item)
	if err != nil {
		return nil, err
	}
	if ext.ByteLen == 0 {
		return nil, nil
	}
	out := make([]byte, 0, ext.ByteLen)
	pageSize := s.pool.PageSize()
	remaining := ext.ByteLen
	offset := ext.StartByte
	for pg := ext.StartPage; remaining > 0; pg++ {
		data, err := s.pool.Get(pg)
		if err != nil {
			return nil, err
		}
		n := int64(pageSize - offset)
		if remaining < n {
			n = remaining
		}
		out = append(out, data[offset:int64(offset)+n]...)
		if err := s.pool.Put(pg); err != nil {
			return nil, err
		}
		remaining -= n
		offset = 0
	}
	return out, nil
}

// TotalBytes returns the summed byte length of all lists (space
// accounting for the experiments).
func (s *Store) TotalBytes() int64 {
	var total int64
	for _, e := range s.extents {
		total += e.ByteLen
	}
	return total
}

// TotalPages returns the number of pages allocated to the store's file.
// Lists are packed, so this is the true disk footprint rather than the
// sum of per-extent page spans (which may share boundary pages).
func (s *Store) TotalPages() int64 { return s.pool.Pager().NumPages() }

// View returns a read-only handle on the same sealed lists through a
// different buffer pool over the same pager. Views isolate all mutable
// state (cache frames, statistics), enabling concurrent readers.
func (s *Store) View(pool *storage.BufferPool) (*Store, error) {
	if pool.Pager() != s.pool.Pager() {
		return nil, errors.New("liststore: View requires the same backing pager")
	}
	if !s.sealed {
		return nil, ErrNotSealed
	}
	return &Store{pool: pool, extents: s.extents, sealed: true}, nil
}
