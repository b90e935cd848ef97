package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// encodingJSON is the reference AppendResult must match: the line
// json.Encoder writes for r.
func encodingJSON(t testing.TB, r Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameFields reports whether a and b agree on every field but IDs.
func sameFields(a, b Result) bool {
	return a.Query == b.Query && a.More == b.More && a.Done == b.Done && a.Count == b.Count && a.Error == b.Error
}

// TestAppendResultMatchesEncodingJSON holds the codec's writer to
// encoding/json byte for byte — extreme ids and counts, empty and nil
// ids, error strings that need escaping, and random lines — and reads
// every line back through DecodeResult.
func TestAppendResultMatchesEncodingJSON(t *testing.T) {
	cases := []Result{
		{},
		{IDs: []uint32{}, Done: true},
		{IDs: []uint32{0}, Done: true, Count: 1},
		{IDs: []uint32{0, math.MaxUint32, 10, 99, 100}, More: true},
		{Query: -1, Count: math.MinInt},
		{Query: math.MaxInt, Count: math.MaxInt, Done: true},
		{Query: 3, More: true, Done: true, Count: -7},
		{Done: true, Error: `setcontain: <shard> & "quoted" \ back`},
		{Done: true, Error: "ctl \x00\x01\x1f\t\n\r\x7f bytes"},
		{Done: true, Error: "bad utf-8 \xff\xfe and    separators, é ok"},
		{IDs: []uint32{1, 2}, Done: true, Count: 2, Error: "ids beside an error"},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		r := Result{Query: rng.Intn(2048) - 16, More: rng.Intn(2) == 0, Done: rng.Intn(2) == 0, Count: rng.Int()}
		for n := rng.Intn(64); n > 0; n-- {
			r.IDs = append(r.IDs, uint32(rng.Uint64()>>uint(rng.Intn(33))))
		}
		if rng.Intn(8) == 0 {
			r.Error = strings.Repeat("x<\"", rng.Intn(4))
		}
		cases = append(cases, r)
	}
	for _, r := range cases {
		got := AppendResult([]byte("prefix"), r)
		want := encodingJSON(t, r)
		if !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
			t.Fatalf("AppendResult(%+v)\n got %q\nwant %q", r, got, append([]byte("prefix"), want...))
		}
		// Read back, the line is what json.Unmarshal reads: r itself,
		// but for an invalid UTF-8 error string, which came out as U+FFFD.
		var ref Result
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		back, ids, err := DecodeResult(bytes.TrimSuffix(want, []byte("\n")), nil)
		if err != nil {
			t.Fatalf("DecodeResult(%q): %v", want, err)
		}
		if back.IDs != nil || !sameFields(back, ref) || !slices.Equal(ids, r.IDs) {
			t.Fatalf("DecodeResult(%q) = %+v with ids %v, want %+v", want, back, ids, ref)
		}
	}
}

// FuzzResultLine holds DecodeResult to json.Unmarshal on arbitrary
// lines: where the canonical scan accepts a line it must read what
// json.Unmarshal reads, and DecodeResult may fail only where
// json.Unmarshal fails. dst's prefix is never touched.
func FuzzResultLine(f *testing.F) {
	for _, seed := range []string{
		`{"query":0,"ids":[1,2],"more":true,"count":0}`,
		`{"query":0,"ids":[4294967295],"done":true,"count":3}`,
		`{"query":0,"done":true,"count":0}`,
		`{"query":-9223372036854775808,"count":9223372036854775807}`,
		`{"query":0,"ids":[4294967296],"done":true,"count":1}`,
		`{"query":0,"ids":[01],"done":true,"count":1}`,
		`{"query":-0,"count":0}`,
		`{"query":0,"ids":[],"count":0}`,
		`{"query":0,"ids":[1,],"count":0}`,
		`{"query":0,"done":true,"count":0,"error":"boom <"}`,
		`{"count":0,"query":0}`,
		`{ "query":0,"count":0}`,
		`{"query":0,"count":0} `,
		`{"query":0,"done":true,"count":0}{}`,
		`{"query":0,"more":false,"count":0}`,
		`{"QUERY":1,"count":0}`,
		`{"query":0,"count":1e3}`,
		`{"query":0,"ids":[1.5],"count":0}`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		prefix := []uint32{42, 43}
		dst := append(make([]uint32, 0, 8), prefix...) // room to append in place
		var want Result
		wantErr := json.Unmarshal(line, &want)

		if r, ids, ok := scanResult(line, dst); ok {
			if wantErr != nil {
				t.Fatalf("scan accepted %q, json.Unmarshal failed: %v", line, wantErr)
			}
			if gotIDs := ids[len(prefix):]; r.IDs != nil || !sameFields(r, want) || !slices.Equal(gotIDs, want.IDs) {
				t.Fatalf("scan of %q = %+v with ids %v, json.Unmarshal %+v", line, r, gotIDs, want)
			}
			if !slices.Equal(ids[:len(prefix)], prefix) {
				t.Fatalf("scan of %q touched dst's prefix: %v", line, ids[:len(prefix)])
			}
		} else if len(ids) != len(prefix) {
			t.Fatalf("scan declined %q but returned %d ids past dst", line, len(ids)-len(prefix))
		}

		r, ids, err := DecodeResult(line, dst)
		if err != nil {
			if wantErr == nil {
				t.Fatalf("DecodeResult(%q) failed where json.Unmarshal reads it: %v", line, err)
			}
			if !slices.Equal(ids, prefix) {
				t.Fatalf("failed DecodeResult(%q) returned dst %v, want %v", line, ids, prefix)
			}
			return
		}
		if wantErr != nil {
			t.Fatalf("DecodeResult(%q) accepted what json.Unmarshal rejects: %v", line, wantErr)
		}
		if r.IDs != nil || !sameFields(r, want) || !slices.Equal(ids, append(prefix, want.IDs...)) {
			t.Fatalf("DecodeResult(%q) = %+v with dst %v, json.Unmarshal %+v after %v", line, r, ids, want, prefix)
		}
	})
}

// BenchmarkResultLine times both ends of the codec on a 400-id chunk
// line of realistic ids, reporting ns per id.
func BenchmarkResultLine(b *testing.B) {
	r := Result{Query: 0, More: true}
	rng := rand.New(rand.NewSource(1))
	id := uint32(0)
	for range 400 {
		id += 1 + uint32(rng.Intn(500))
		r.IDs = append(r.IDs, id)
	}
	line := bytes.TrimSuffix(AppendResult(nil, r), []byte("\n"))
	perID := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(r.IDs)), "ns/id")
	}
	b.Run("encode", func(b *testing.B) {
		buf := AppendResult(nil, r)
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendResult(buf[:0], r)
		}
		perID(b)
	})
	b.Run("decode", func(b *testing.B) {
		dst := make([]uint32, 0, len(r.IDs))
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if _, dst, err = DecodeResult(line, dst[:0]); err != nil {
				b.Fatal(err)
			}
		}
		perID(b)
	})
}
