// Package snapio holds the byte-level plumbing every snapshot format in
// the repository shares: little-endian integer framing, length-prefixed
// uint32 slices with allocation bounds, and CRC32 accounting writers and
// readers whose trailer guards a whole stream. The OIF snapshot
// (internal/core), the inverted-file snapshot (internal/invfile), and
// the self-describing engine container (setcontain) are all spelled in
// this vocabulary, so their formats stay structurally identical and a
// corruption test written against one applies to all.
package snapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrCorrupt reports a snapshot stream whose CRC trailer does not match
// the bytes read. Format packages wrap it with their own context.
var ErrCorrupt = errors.New("snapio: snapshot CRC mismatch")

// MaxSliceLen bounds slice headers so a corrupt stream cannot force a
// huge allocation before the CRC check has a chance to fail.
const MaxSliceLen = 1 << 31

// allocStep is the most a length header is trusted for up front: a
// slice or byte block up to this size is allocated exactly, a larger one
// starts here and grows only as its bytes actually arrive, so a corrupt
// header inside the MaxSliceLen bound costs one step, not gigabytes.
const allocStep = 1 << 22

// Writer accumulates a CRC32 (IEEE) over everything written through it.
type Writer struct {
	w   io.Writer
	crc uint32
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write implements io.Writer, folding p into the running CRC.
func (c *Writer) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// Sum returns the CRC of everything written so far.
func (c *Writer) Sum() uint32 { return c.crc }

// WriteTrailer writes the accumulated CRC to the underlying writer
// (bypassing the CRC accounting — the trailer is not itself CRC'd).
func (c *Writer) WriteTrailer() error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], c.crc)
	_, err := c.w.Write(b[:])
	return err
}

// Reader accumulates a CRC32 (IEEE) over everything read through it.
type Reader struct {
	r   io.Reader
	crc uint32
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Read implements io.Reader, folding the bytes read into the CRC.
func (c *Reader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// Sum returns the CRC of everything read so far.
func (c *Reader) Sum() uint32 { return c.crc }

// VerifyTrailer reads the 4-byte CRC trailer from the underlying reader
// (not CRC'd itself) and checks it against the accumulated sum.
func (c *Reader) VerifyTrailer() error {
	want := c.crc
	var tail [4]byte
	if _, err := io.ReadFull(c.r, tail[:]); err != nil {
		return fmt.Errorf("%w: missing CRC trailer", ErrCorrupt)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return fmt.Errorf("%w (stored %08x, computed %08x)", ErrCorrupt, got, want)
	}
	return nil
}

// WriteU32 writes v little-endian.
func WriteU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

// WriteU64 writes v little-endian.
func WriteU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

// WriteU32Slice writes a u64 length header followed by the values.
func WriteU32Slice(w io.Writer, vals []uint32) error {
	if err := WriteU64(w, uint64(len(vals))); err != nil {
		return err
	}
	var buf [4 * 1024]byte
	for len(vals) > 0 {
		n := len(vals)
		if n > 1024 {
			n = 1024
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], vals[i])
		}
		if _, err := w.Write(buf[:n*4]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// ReadU32 reads one little-endian uint32.
func ReadU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// ReadU64 reads one little-endian uint64.
func ReadU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// ReadU32Slice reads a slice written by WriteU32Slice, rejecting length
// headers beyond MaxSliceLen.
func ReadU32Slice(r io.Reader) ([]uint32, error) {
	n, err := ReadU64(r)
	if err != nil {
		return nil, err
	}
	if n > MaxSliceLen {
		return nil, fmt.Errorf("snapio: slice of %d elements exceeds bound", n)
	}
	out := make([]uint32, 0, min(n, allocStep))
	var buf [4 * 1024]byte
	for uint64(len(out)) < n {
		chunk := min(n-uint64(len(out)), 1024)
		if _, err := io.ReadFull(r, buf[:chunk*4]); err != nil {
			return nil, err
		}
		for j := uint64(0); j < chunk; j++ {
			out = append(out, binary.LittleEndian.Uint32(buf[j*4:]))
		}
	}
	return out, nil
}

// SkipU32Slice reads past a slice written by WriteU32Slice, keeping
// none of it, under ReadU32Slice's bound, and returns its length.
func SkipU32Slice(r io.Reader) (uint64, error) {
	n, err := ReadU64(r)
	if err != nil {
		return 0, err
	}
	if n > MaxSliceLen {
		return 0, fmt.Errorf("snapio: slice of %d elements exceeds bound", n)
	}
	if _, err := io.CopyN(io.Discard, r, int64(4*n)); err != nil {
		return 0, err
	}
	return n, nil
}

// WriteBytes writes a u64 length header followed by the raw bytes.
func WriteBytes(w io.Writer, b []byte) error {
	if err := WriteU64(w, uint64(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// ReadBytes reads a byte block written by WriteBytes, rejecting length
// headers beyond MaxSliceLen.
func ReadBytes(r io.Reader) ([]byte, error) {
	n, err := ReadU64(r)
	if err != nil {
		return nil, err
	}
	return ReadN(r, n)
}

// ReadN reads exactly n bytes whose count came from the stream itself,
// rejecting counts beyond MaxSliceLen. Memory grows only as the bytes
// arrive, so a corrupt count costs at most allocStep up front.
func ReadN(r io.Reader, n uint64) ([]byte, error) {
	if n > MaxSliceLen {
		return nil, fmt.Errorf("snapio: byte block of %d exceeds bound", n)
	}
	if n <= allocStep {
		out := make([]byte, n)
		if _, err := io.ReadFull(r, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
