// Package storage provides the paging substrate shared by every index in
// this repository: fixed-size pages, in-memory and file-backed pagers, an
// LRU buffer pool that accounts for disk page accesses the way the paper
// measures them (cache misses, split into sequential and random), and a
// configurable disk model that converts an access trace into estimated I/O
// time.
//
// Pages are written once: an index builder writes each page straight to a
// fresh pager, and from then on the pages are only read, through a
// BufferPool, which is a read cache and has no write path.
//
// The paper (§5) evaluates all indexes on Berkeley DB with the database
// cache set to the minimum (32 KB) and reports "the actual disk page
// accesses, reported as cache misses by the database". BufferPool
// reproduces exactly that measurement.
package storage

import (
	"errors"
	"fmt"
)

// PageID identifies a fixed-size page within a pager. Pages are numbered
// densely from 0 in allocation order.
type PageID int64

// InvalidPageID is the zero-like sentinel for "no page".
const InvalidPageID PageID = -1

// DefaultPageSize is the page size used throughout the repository unless a
// caller overrides it. 4 KB matches the Berkeley DB default used by the
// paper's implementation.
const DefaultPageSize = 4096

// Common pager errors.
var (
	ErrPageOutOfRange = errors.New("storage: page id out of range")
	ErrBadPageSize    = errors.New("storage: buffer size does not match page size")
	ErrClosed         = errors.New("storage: pager is closed")
)

// Pager is the raw page I/O interface. Implementations must support dense
// allocation and random reads/writes of whole pages. Pagers are not safe
// for concurrent use; indexes in this repository serialise access through
// their own structures.
type Pager interface {
	// PageSize returns the fixed size of every page in bytes.
	PageSize() int

	// NumPages returns the number of allocated pages.
	NumPages() int64

	// Allocate extends the pager by one zeroed page and returns its id.
	Allocate() (PageID, error)

	// ReadPage fills buf (which must be exactly PageSize bytes) with the
	// contents of page id.
	ReadPage(id PageID, buf []byte) error

	// WritePage stores buf (exactly PageSize bytes) as the contents of
	// page id. The page must have been allocated.
	WritePage(id PageID, buf []byte) error

	// Sync flushes any buffered writes to stable storage.
	Sync() error

	// Close releases resources. The pager is unusable afterwards.
	Close() error
}

func checkPage(p Pager, id PageID, buf []byte) error {
	if len(buf) != p.PageSize() {
		return fmt.Errorf("%w: got %d, want %d", ErrBadPageSize, len(buf), p.PageSize())
	}
	if id < 0 || int64(id) >= p.NumPages() {
		return fmt.Errorf("%w: page %d of %d", ErrPageOutOfRange, id, p.NumPages())
	}
	return nil
}
