package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// The text format is one record per line: space-separated decimal item
// ids. Lines starting with '#' are comments; the first non-comment line
// may be a header of the form "domain N" fixing the vocabulary size
// (otherwise it is inferred as max item + 1). Empty lines encode empty
// sets only after the header; leading empty lines are skipped.

// Write serialises d in the text format.
func Write(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# set-valued dataset: %d records\n", d.Len()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "domain %d\n", d.DomainSize()); err != nil {
		return err
	}
	var sb strings.Builder
	for _, r := range d.Records() {
		sb.Reset()
		for i, it := range r.Set {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(strconv.FormatUint(uint64(it), 10))
		}
		sb.WriteByte('\n')
		if _, err := bw.WriteString(sb.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the text format. Each line goes into the dataset as it is
// parsed, through one reused buffer. A file without a header is read
// over every uint32 item and given its inferred domain at the end. A
// record Add refuses is reported only once every line has parsed, so a
// malformed line anywhere in the file is the error reported first.
func Read(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var (
		d        *Dataset // nil until the header or the first record
		inferred bool     // d's domain is to be inferred at the end
		set      []Item
		maxItem  Item
		addErr   error
	)
	for line := 1; sc.Scan(); line++ {
		text := bytes.TrimSpace(sc.Bytes())
		if bytes.HasPrefix(text, []byte("#")) {
			continue
		}
		if d == nil {
			if len(text) == 0 {
				continue
			}
			if n, ok := bytes.CutPrefix(text, []byte("domain ")); ok {
				v, err := strconv.Atoi(string(bytes.TrimSpace(n)))
				if err != nil || v < 0 {
					return nil, fmt.Errorf("dataset: line %d: bad domain header %q", line, text)
				}
				d = New(v)
				continue
			}
			d, inferred = New(math.MaxInt), true
		}
		set = set[:0]
		for rest := text; len(rest) > 0; {
			var f []byte
			if f, rest = cutField(rest); len(f) == 0 {
				break
			}
			it, ok := parseItem(f)
			if !ok {
				return nil, fmt.Errorf("dataset: line %d: bad item %q", line, f)
			}
			maxItem = max(maxItem, it)
			set = append(set, it)
		}
		if addErr == nil {
			if _, err := d.Add(set); err != nil {
				addErr = fmt.Errorf("dataset: record %d: %w", d.Len()+1, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: read: %w", err)
	}
	if addErr != nil {
		return nil, addErr
	}
	if d == nil {
		return New(0), nil
	}
	if inferred {
		d.domainSize = int(maxItem) + 1
	}
	return d, nil
}

// cutField returns the first field of b and what follows it, split at
// white space as strings.Fields splits.
func cutField(b []byte) (field, rest []byte) {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	if i := bytes.IndexFunc(b, unicode.IsSpace); i >= 0 {
		return b[:i], b[i:]
	}
	return b, nil
}

// parseItem parses a decimal uint32 as strconv.ParseUint(f, 10, 32) does.
func parseItem(f []byte) (Item, bool) {
	var v uint64
	for _, c := range f {
		if c < '0' || c > '9' {
			return 0, false
		}
		if v = v*10 + uint64(c-'0'); v > math.MaxUint32 {
			return 0, false
		}
	}
	return Item(v), len(f) > 0
}
