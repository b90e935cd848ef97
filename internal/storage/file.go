package storage

import (
	"fmt"
	"os"
)

// FilePager is a Pager backed by a single file on disk. It exists so the
// indexes can be tested against real storage (through core.Options.Pool;
// no command builds over it); the product and the experimental harness
// use MemPager + BufferPool, where I/O cost is modelled rather than
// incurred.
type FilePager struct {
	f        *os.File
	pageSize int
	nPages   int64
	closed   bool
}

// CreateFilePager creates (truncating) the file at path and returns an
// empty pager over it. A non-positive pageSize selects DefaultPageSize.
func CreateFilePager(path string, pageSize int) (*FilePager, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create file pager: %w", err)
	}
	return &FilePager{f: f, pageSize: pageSize}, nil
}

// OpenFilePager opens an existing pager file. The caller must supply the
// same page size the file was created with; the file length must be a
// multiple of it.
func OpenFilePager(path string, pageSize int) (*FilePager, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open file pager: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat file pager: %w", err)
	}
	if info.Size()%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: file size %d not a multiple of page size %d", info.Size(), pageSize)
	}
	return &FilePager{f: f, pageSize: pageSize, nPages: info.Size() / int64(pageSize)}, nil
}

// PageSize implements Pager.
func (p *FilePager) PageSize() int { return p.pageSize }

// NumPages implements Pager.
func (p *FilePager) NumPages() int64 { return p.nPages }

// Allocate implements Pager.
func (p *FilePager) Allocate() (PageID, error) {
	if p.closed {
		return InvalidPageID, ErrClosed
	}
	id := PageID(p.nPages)
	zero := make([]byte, p.pageSize)
	if _, err := p.f.WriteAt(zero, int64(id)*int64(p.pageSize)); err != nil {
		return InvalidPageID, fmt.Errorf("storage: allocate page %d: %w", id, err)
	}
	p.nPages++
	return id, nil
}

// ReadPage implements Pager.
func (p *FilePager) ReadPage(id PageID, buf []byte) error {
	if p.closed {
		return ErrClosed
	}
	if err := checkPage(p, id, buf); err != nil {
		return err
	}
	if _, err := p.f.ReadAt(buf, int64(id)*int64(p.pageSize)); err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return nil
}

// WritePage implements Pager.
func (p *FilePager) WritePage(id PageID, buf []byte) error {
	if p.closed {
		return ErrClosed
	}
	if err := checkPage(p, id, buf); err != nil {
		return err
	}
	if _, err := p.f.WriteAt(buf, int64(id)*int64(p.pageSize)); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// Sync implements Pager.
func (p *FilePager) Sync() error {
	if p.closed {
		return ErrClosed
	}
	return p.f.Sync()
}

// Close implements Pager.
func (p *FilePager) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	return p.f.Close()
}
