// Package vbyte implements the byte-wise variable-length integer coding of
// Williams & Zobel ("Compressing Integers for Fast File Access", 1999) that
// the paper adopts for posting compression (§3, "Compression"; §5 uses
// "v-byte compression" for both the d-gaps of record ids and the stored
// record lengths).
//
// Each byte carries 7 payload bits; the high bit is a continuation flag
// (1 = more bytes follow). Values are encoded little-endian by 7-bit group.
//
// A block of postings is read by kernels (kernels.go) that walk its bytes
// once, a word at a time, and write only what the caller keeps: the ids
// a candidate bitmap marks (AppendMarked, and AppendMatches around it),
// the ids whose length is in range (AppendIDs), or the whole postings
// past an id whose length is in range (AppendPostingsAfter).
// DecodePostings is the byte-at-a-time reference
// they are fuzzed against, errors included.
package vbyte

import (
	"errors"
	"fmt"
)

// ErrTruncated reports a decode that ran off the end of its buffer.
var ErrTruncated = errors.New("vbyte: truncated value")

// ErrOverflow reports an encoded value wider than 64 bits.
var ErrOverflow = errors.New("vbyte: value overflows uint64")

// MaxLen64 is the maximum encoded size of a uint64.
const MaxLen64 = 10

// MaxLen32 is the maximum encoded size of a uint32.
const MaxLen32 = 5

// AppendUint64 appends the v-byte encoding of v to dst and returns the
// extended slice.
func AppendUint64(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// Uint64 decodes one value from buf, returning it and the number of bytes
// consumed.
func Uint64(buf []byte) (v uint64, n int, err error) {
	var shift uint
	for i, b := range buf {
		if i == MaxLen64 {
			return 0, 0, ErrOverflow
		}
		if b < 0x80 {
			if i == MaxLen64-1 && b > 1 {
				return 0, 0, ErrOverflow
			}
			return v | uint64(b)<<shift, i + 1, nil
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, 0, ErrTruncated
}

// AppendUint32 appends the v-byte encoding of v.
func AppendUint32(dst []byte, v uint32) []byte {
	return AppendUint64(dst, uint64(v))
}

// Uint32 decodes one 32-bit value from buf. Unlike the original
// Uint64-and-narrow round trip, it decodes directly in 32-bit registers:
// the overwhelmingly common single-byte value returns immediately, and
// values up to MaxLen32 bytes stay in the inlined loop. Only overlong,
// overflowing, or truncated inputs fall back to the 64-bit decoder, so
// the error classification (ErrTruncated vs ErrOverflow, including the
// "does not fit in 32 bits" wrap) is byte-for-byte identical to the
// previous implementation — FuzzUint32 pins the equivalence.
func Uint32(buf []byte) (uint32, int, error) {
	if len(buf) > 0 && buf[0] < 0x80 {
		return uint32(buf[0]), 1, nil
	}
	return uint32Multi(buf)
}

// uint32Multi decodes a multi-byte (or erroneous) 32-bit value. Split
// from Uint32 so the fast path stays inlinable.
func uint32Multi(buf []byte) (uint32, int, error) {
	var v uint32
	var shift uint
	n := len(buf)
	if n > MaxLen32 {
		n = MaxLen32
	}
	for i := 0; i < n; i++ {
		b := buf[i]
		if b < 0x80 {
			if i == MaxLen32-1 && b > 0x0F {
				break // payload exceeds 32 bits: classify via the slow path
			}
			return v | uint32(b)<<shift, i + 1, nil
		}
		v |= uint32(b&0x7f) << shift
		shift += 7
	}
	// Overlong, overflowing, or truncated: re-decode through the 64-bit
	// path so the returned error matches the reference decoder exactly.
	w, m, err := Uint64(buf)
	if err != nil {
		return 0, 0, err
	}
	if w > 0xFFFFFFFF {
		return 0, 0, fmt.Errorf("%w: %d does not fit in 32 bits", ErrOverflow, w)
	}
	return uint32(w), m, nil
}
