//go:build !race

package wire

import (
	"bytes"
	"testing"
)

// TestResultCodecZeroAllocs is the codec's allocation gate: encoding a
// line into a warm buffer and decoding a canonical line into a warm dst
// allocate nothing. It is compiled out under the race detector, whose
// instrumentation allocates; `make alloc-check` runs it.
func TestResultCodecZeroAllocs(t *testing.T) {
	r := Result{Query: 0, IDs: []uint32{0, 7, 4096, 65535, 4294967295}, Done: true, Count: 5}
	buf := AppendResult(nil, r)
	line := bytes.TrimSuffix(AppendResult(nil, r), []byte("\n"))
	dst := make([]uint32, 0, len(r.IDs))

	if allocs := testing.AllocsPerRun(100, func() {
		buf = AppendResult(buf[:0], r)
	}); allocs != 0 {
		t.Errorf("AppendResult into a warm buffer: %.2f allocs per line, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		var err error
		if _, dst, err = DecodeResult(line, dst[:0]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("DecodeResult into a warm dst: %.2f allocs per line, want 0", allocs)
	}
}
