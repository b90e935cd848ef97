package wire

import (
	"encoding/json"
	"math"
	"strconv"
)

// The Result line codec. Both ends of the /query answer stream call it:
// a daemon writes every line with AppendResult, a coordinator reads
// every line with DecodeResult. The protocol is still JSON — the tags
// on Result — and encoding/json stays its authority: AppendResult
// writes byte for byte what json.Encoder writes for a Result, and
// DecodeResult hands any line outside that one canonical form to
// json.Unmarshal.

// AppendResult appends r's NDJSON line, its newline included, to dst:
// exactly the bytes json.NewEncoder(w).Encode(r) writes. An error string
// goes through json.Marshal, so its escaping is encoding/json's.
func AppendResult(dst []byte, r Result) []byte {
	dst = append(dst, `{"query":`...)
	dst = strconv.AppendInt(dst, int64(r.Query), 10)
	if len(r.IDs) > 0 {
		dst = append(dst, `,"ids":[`...)
		for i, id := range r.IDs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, uint64(id), 10)
		}
		dst = append(dst, ']')
	}
	if r.More {
		dst = append(dst, `,"more":true`...)
	}
	if r.Done {
		dst = append(dst, `,"done":true`...)
	}
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(r.Count), 10)
	if r.Error != "" {
		msg, _ := json.Marshal(r.Error) // a string always marshals
		dst = append(dst, `,"error":`...)
		dst = append(dst, msg...)
	}
	return append(dst, "}\n"...)
}

// DecodeResult decodes one NDJSON line, its newline stripped, and
// appends the line's ids to dst: the returned Result's IDs is always
// nil. A line in the form AppendResult writes for a line without an
// error is scanned in place; any other line — an error line, other key
// orders, whitespace, anything not JSON — is decoded by json.Unmarshal,
// whose error DecodeResult returns with dst as given.
func DecodeResult(line []byte, dst []uint32) (Result, []uint32, error) {
	if r, out, ok := scanResult(line, dst); ok {
		return r, out, nil
	}
	var r Result
	if err := json.Unmarshal(line, &r); err != nil {
		return Result{}, dst, err
	}
	dst = append(dst, r.IDs...)
	r.IDs = nil
	return r, dst, nil
}

// scanResult parses the canonical line AppendResult writes when Error
// is empty,
//
//	{"query":Q[,"ids":[I,…]][,"more":true][,"done":true],"count":C}
//
// appending the ids to dst. For any other input it reports false and
// returns dst as given; the scan never accepts a line json.Unmarshal
// would read differently.
func scanResult(line []byte, dst []uint32) (Result, []uint32, bool) {
	base := len(dst)
	var r Result
	p, ok := cutPrefix(line, `{"query":`)
	if ok {
		r.Query, p, ok = scanInt(p)
	}
	if !ok {
		return Result{}, dst, false
	}
	if rest, ids := cutPrefix(p, `,"ids":[`); ids {
		p = rest
		for {
			var id uint64
			if id, p, ok = scanDigits(p, math.MaxUint32); !ok || len(p) == 0 {
				return Result{}, dst[:base], false
			}
			dst = append(dst, uint32(id))
			c := p[0]
			p = p[1:]
			if c == ']' {
				break
			}
			if c != ',' {
				return Result{}, dst[:base], false
			}
		}
	}
	p, r.More = cutPrefix(p, `,"more":true`)
	p, r.Done = cutPrefix(p, `,"done":true`)
	p, ok = cutPrefix(p, `,"count":`)
	if ok {
		r.Count, p, ok = scanInt(p)
	}
	if !ok || string(p) != "}" {
		return Result{}, dst[:base], false
	}
	return r, dst, true
}

// cutPrefix returns p without its leading s, and whether it had one.
func cutPrefix(p []byte, s string) ([]byte, bool) {
	if len(p) < len(s) || string(p[:len(s)]) != s {
		return p, false
	}
	return p[len(s):], true
}

// scanInt reads a canonical JSON integer that fits an int: an optional
// minus sign and digits without a leading zero. "-0", which
// strconv.AppendInt never writes, is declined.
func scanInt(p []byte) (int, []byte, bool) {
	neg := len(p) > 0 && p[0] == '-'
	if !neg {
		u, rest, ok := scanDigits(p, math.MaxInt)
		return int(u), rest, ok
	}
	u, rest, ok := scanDigits(p[1:], math.MaxInt+1)
	if !ok || u == 0 {
		return 0, p, false
	}
	return -int(u), rest, true
}

// scanDigits reads a run of decimal digits without a leading zero (a
// lone "0" ends the number, so "01" leaves "1" unread for the caller to
// decline) whose value is at most max.
func scanDigits(p []byte, max uint64) (uint64, []byte, bool) {
	if len(p) == 0 || p[0] < '0' || p[0] > '9' {
		return 0, p, false
	}
	if p[0] == '0' {
		return 0, p[1:], true
	}
	var v uint64
	i := 0
	for ; i < len(p) && '0' <= p[i] && p[i] <= '9'; i++ {
		d := uint64(p[i] - '0')
		if v > (max-d)/10 {
			return 0, p, false
		}
		v = v*10 + d
	}
	return v, p[i:], true
}
