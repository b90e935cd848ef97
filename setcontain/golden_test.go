package setcontain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/invfile"
	"repro/internal/naive"
	"repro/internal/snapio"
)

// The golden snapshots under testdata/snapshots pin the on-disk formats
// (SCSNAP01 container, OIFSNAP2, IFSNAP01, the sharded manifest) across
// versions of the code: they were written by the code of PR 14, the
// commit before this test existed, and every later build must open
// them, answer from them like the oracle, and re-save them byte for
// byte. A running OpenDurable directory holds checkpoints in exactly
// these formats. Regenerate (only when a format version is deliberately
// bumped) with
// SETCONTAIN_WRITE_GOLDEN=1 go test -run TestGoldenSnapshots ./setcontain.
var goldenKinds = []struct {
	name string
	opts []Option
}{
	{"oif", []Option{WithKind(OIF), WithPageSize(512), WithBlockPostings(8)}},
	{"if", []Option{WithKind(InvertedFile), WithPageSize(512)}},
	{"sharded2", []Option{WithKind(Sharded), WithShards(2), WithPageSize(512), WithBlockPostings(8)}},
}

const (
	goldenDomain = 16
	goldenBase   = 90 // records indexed by the build
	goldenEarly  = 5  // inserted, then merged with one early delete
	goldenLate   = 9  // inserted after the merge: the pending section
)

// goldenDeletes are the tombstones: id 4 is folded out by the merge, the
// rest are set afterwards (merged base records, a merged early insert,
// and one still-pending insert), leaving the dead-dirty flag set.
var (
	goldenEarlyDelete = uint32(4)
	goldenLateDeletes = []uint32{1, 37, goldenBase, goldenBase + 2, goldenBase + goldenEarly + 4}
)

// goldenSet is record i's item set (0-based): skewed towards low items
// like the paper's data, formulaic so no RNG stream is part of the pin.
// Every seventh record is empty, the regions the OIF metadata treats
// specially.
func goldenSet(i int) []Item {
	var set []Item
	if i%7 == 6 {
		return set
	}
	for it := 0; it < goldenDomain; it++ {
		if (i*(it+1)+it*it)%(it+3) < 2 {
			set = append(set, Item(it))
		}
	}
	return set
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "snapshots", name+".snap")
}

// buildGolden replays the golden mutation history on a fresh index.
func buildGolden(t *testing.T, opts []Option) *Index {
	t.Helper()
	c := NewCollection(goldenDomain)
	for i := 0; i < goldenBase; i++ {
		if _, err := c.Add(goldenSet(i)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := New(c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	insert := func(from, n int) {
		for i := from; i < from+n; i++ {
			if _, err := ix.Insert(goldenSet(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(goldenBase, goldenEarly)
	if err := ix.Delete(goldenEarlyDelete); err != nil {
		t.Fatal(err)
	}
	if err := ix.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	insert(goldenBase+goldenEarly, goldenLate)
	for _, id := range goldenLateDeletes {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// goldenOracle answers q over the records the golden state holds: every
// record ever added, minus the tombstoned ids.
func goldenOracle(d *dataset.Dataset, dead []uint32, q Query) []uint32 {
	var ids []uint32
	switch q.Pred {
	case PredicateSubset:
		ids = naive.Subset(d, q.Items)
	case PredicateEquality:
		ids = naive.Equality(d, q.Items)
	default:
		ids = naive.Superset(d, q.Items)
	}
	return slices.DeleteFunc(ids, func(id uint32) bool { return slices.Contains(dead, id) })
}

func TestGoldenSnapshots(t *testing.T) {
	if os.Getenv("SETCONTAIN_WRITE_GOLDEN") != "" {
		for _, k := range goldenKinds {
			var buf bytes.Buffer
			if err := buildGolden(t, k.opts).Save(&buf); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Dir(goldenPath(k.name)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath(k.name), buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	total := goldenBase + goldenEarly + goldenLate
	d := dataset.New(goldenDomain)
	for i := 0; i < total; i++ {
		if _, err := d.Add(goldenSet(i)); err != nil {
			t.Fatal(err)
		}
	}
	dead := append([]uint32{goldenEarlyDelete}, goldenLateDeletes...)

	// Every predicate over the empty set, every single item, and a
	// spread of pairs, triples and wide sets (superset answers need the
	// latter to be non-trivial).
	var queries []Query
	for _, pred := range []Predicate{PredicateSubset, PredicateEquality, PredicateSuperset} {
		queries = append(queries, Query{Pred: pred})
		for a := 0; a < goldenDomain; a++ {
			queries = append(queries,
				Query{Pred: pred, Items: []Item{Item(a)}},
				Query{Pred: pred, Items: []Item{0, Item(a)}},
				Query{Pred: pred, Items: []Item{Item(a), Item((a + 1) % goldenDomain), Item((a + 5) % goldenDomain)}},
				Query{Pred: pred, Items: goldenSet(a * 6)})
		}
		queries = append(queries, Query{Pred: pred, Items: []Item{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}})
	}

	for _, k := range goldenKinds {
		t.Run(k.name, func(t *testing.T) {
			golden, err := os.ReadFile(goldenPath(k.name))
			if err != nil {
				t.Fatal(err)
			}
			ix, err := Open(bytes.NewReader(golden))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if ix.NumRecords() != total || ix.PendingInserts() != goldenLate || ix.Deleted() != len(dead) {
				t.Fatalf("shape %d records / %d pending / %d deleted, want %d / %d / %d",
					ix.NumRecords(), ix.PendingInserts(), ix.Deleted(), total, goldenLate, len(dead))
			}
			check := func(stage string) {
				t.Helper()
				nonEmpty := 0
				for _, q := range queries {
					got, err := ix.Eval(q)
					if err != nil {
						t.Fatalf("%s %s: %v", stage, q, err)
					}
					want := goldenOracle(d, dead, q)
					if !slices.Equal(got, want) {
						t.Fatalf("%s %s: got %v, want %v", stage, q, got, want)
					}
					if len(want) > 0 {
						nonEmpty++
					}
				}
				if nonEmpty < len(queries)/3 {
					t.Fatalf("%s: only %d of %d queries have answers; the pin is too weak", stage, nonEmpty, len(queries))
				}
			}
			check("restored")

			var resaved bytes.Buffer
			if err := ix.Save(&resaved); err != nil {
				t.Fatalf("Save: %v", err)
			}
			if !bytes.Equal(resaved.Bytes(), golden) {
				t.Fatalf("Save(Open(golden)) differs from golden: %d vs %d bytes, first difference at offset %d",
					resaved.Len(), len(golden), firstDiff(resaved.Bytes(), golden))
			}

			// The restored dead-dirty flag and pending section drive a
			// real merge; answers must not move.
			if err := ix.MergeDelta(); err != nil {
				t.Fatalf("MergeDelta: %v", err)
			}
			if ix.PendingInserts() != 0 || ix.Deleted() != len(dead) {
				t.Fatalf("after merge: %d pending / %d deleted", ix.PendingInserts(), ix.Deleted())
			}
			check("merged")
		})
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// goldenFirstPending is the first pending record as the single-engine
// goldens hold it — its id, then its length-prefixed set — which is how
// the tests below find the pending-records section.
func goldenFirstPending() []byte {
	var rec bytes.Buffer
	first := goldenBase + goldenEarly
	snapio.WriteU32(&rec, uint32(first+1))
	snapio.WriteU32Slice(&rec, goldenSet(first))
	return rec.Bytes()
}

// resealed returns a copy of a single-engine golden with edit applied
// and the payload's CRC trailer recomputed over the result.
func resealed(golden []byte, edit func(b []byte)) []byte {
	const header = len(containerMagic) + 4*4 + 4 // the container header and its own CRC
	b := slices.Clone(golden)
	edit(b)
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[header:len(b)-4]))
	return b
}

// hostilePending returns copies of a single-engine golden whose first
// pending record, at offset rec, is one no Insert could have produced.
// They are resealed, so no checksum stands between the record and the
// code that indexes by its items and its id.
func hostilePending(golden []byte, rec int) map[string][]byte {
	items := rec + 4 + 8 // past the record's id and its set's length word
	last := items + 4*(len(goldenSet(goldenBase+goldenEarly))-1)
	return map[string][]byte{
		"item outside the domain": resealed(golden, func(b []byte) {
			binary.LittleEndian.PutUint32(b[last:], goldenDomain) // still ascending
		}),
		"unsorted set": resealed(golden, func(b []byte) {
			first, second := binary.LittleEndian.Uint32(b[items:]), binary.LittleEndian.Uint32(b[items+4:])
			binary.LittleEndian.PutUint32(b[items:], second)
			binary.LittleEndian.PutUint32(b[items+4:], first)
		}),
		"id out of sequence": resealed(golden, func(b []byte) {
			binary.LittleEndian.PutUint32(b[rec:], goldenBase+goldenEarly+2)
		}),
	}
}

// TestOpenRefusesHostilePending: a container whose checksums are all in
// order but whose pending section carries an out-of-domain item, an
// unsorted set or a non-consecutive id is a bad snapshot like any other
// malformed section — not an index that panics at its next merge.
func TestOpenRefusesHostilePending(t *testing.T) {
	for name, bad := range map[string]error{"oif": core.ErrBadSnapshot, "if": invfile.ErrBadSnapshot} {
		golden, err := os.ReadFile(goldenPath(name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resealed(golden, func([]byte) {}), golden) {
			t.Fatalf("%s: resealing the untouched golden changes it", name)
		}
		rec := bytes.Index(golden, goldenFirstPending())
		if rec < 0 {
			t.Fatalf("%s: pending section not found", name)
		}
		for what, snap := range hostilePending(golden, rec) {
			if _, err := Open(bytes.NewReader(snap)); !errors.Is(err, bad) {
				t.Errorf("%s, %s: Open = %v, want %v", name, what, err, bad)
			}
		}
	}
}

// goldenTombstones is the tombstone section as the single-engine goldens
// hold it: the sorted tombstoned ids as one length-prefixed slice.
func goldenTombstones() []byte {
	dead := append([]uint32{goldenEarlyDelete}, goldenLateDeletes...)
	slices.Sort(dead)
	var sec bytes.Buffer
	snapio.WriteU32Slice(&sec, dead)
	return sec.Bytes()
}

// hostileTombstones returns copies of a single-engine golden, resealed,
// whose tombstone section, at offset tomb, no sequence of deletes could
// have written: ids out of order, an id twice, id 0, an id past the last
// record, and one near 2^32 that a bitmap sized by it would need half a
// gigabyte for.
func hostileTombstones(golden []byte, tomb int) map[string][]byte {
	ids := tomb + 8 // past the section's length word
	n := len(goldenLateDeletes) + 1
	last := ids + 4*(n-1)
	put := func(at int, v uint32) []byte {
		return resealed(golden, func(b []byte) { binary.LittleEndian.PutUint32(b[at:], v) })
	}
	return map[string][]byte{
		"tombstones out of order": resealed(golden, func(b []byte) {
			first, second := binary.LittleEndian.Uint32(b[ids:]), binary.LittleEndian.Uint32(b[ids+4:])
			binary.LittleEndian.PutUint32(b[ids:], second)
			binary.LittleEndian.PutUint32(b[ids+4:], first)
		}),
		"repeated tombstone":      put(ids+4, binary.LittleEndian.Uint32(golden[ids:])),
		"tombstone on id 0":       put(ids, 0),
		"tombstone past the last": put(last, goldenBase+goldenEarly+goldenLate+1),
		"tombstone near 2^32":     put(last, 1<<32-1),
	}
}

// TestOpenRefusesHostileTombstones: a container whose checksums are all
// in order but whose tombstone section is not strictly ascending ids of
// its records is a bad snapshot — not an index whose deleted records
// reappear, or that allocates by the largest id it was handed.
func TestOpenRefusesHostileTombstones(t *testing.T) {
	for name, bad := range map[string]error{"oif": core.ErrBadSnapshot, "if": invfile.ErrBadSnapshot} {
		golden, err := os.ReadFile(goldenPath(name))
		if err != nil {
			t.Fatal(err)
		}
		tomb := bytes.Index(golden, goldenTombstones())
		if tomb < 0 {
			t.Fatalf("%s: tombstone section not found", name)
		}
		for what, snap := range hostileTombstones(golden, tomb) {
			if _, err := Open(bytes.NewReader(snap)); !errors.Is(err, bad) {
				t.Errorf("%s, %s: Open = %v, want %v", name, what, err, bad)
			}
		}
	}
}

// hostilePages returns copies of the OIF golden, resealed, whose B-tree
// pages or metadata table no build could have written: the root routing
// its leftmost child to itself (a descent that never reaches a leaf), a
// leaf cell slot pointing past the page, a region whose runs end past
// the records (and whose singleton run would never end), an empty-set
// run past the records, and the first list block's first posting id
// (its first byte, a one-byte gap) raised past the records — which also
// moves the block's last id off its key's — or lowered by one, which
// moves only the last id — and a list's later block emptied, its key
// ending in id 0. Four more describe two collections at once, each
// table and list well formed on its own: the first posting's length
// lowered by one (a subset query cuts its candidates by length, so the
// record would drop out of answers it belongs to) or raised by one, and
// a region that
// starts one id early, overlapping the region before it, or one id late,
// leaving a gap.
func hostilePages(t testing.TB, golden []byte) map[string][]byte {
	// The container header and its CRC, the payload magic, eight header
	// words, the item order, then the regions as (L, U, U1) words.
	const hdr = len(containerMagic) + 4*4 + 4 + len("OIFSNAP2")
	word := func(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }
	pageSize, numRecords, domain := int(word(golden, hdr)), word(golden, hdr+2*4), int(word(golden, hdr+3*4))
	regions := hdr + 8*4 + 8 + 4*domain + 8

	// The pages end the payload, after their u64 count; the CRC follows.
	end := len(golden) - 4
	pages := -1
	for n := 1; n*pageSize+8 <= end; n++ {
		if binary.LittleEndian.Uint64(golden[end-n*pageSize-8:]) == uint64(n) {
			pages = end - n*pageSize
			break
		}
	}
	if pages < 0 {
		t.Fatal("oif golden: pages not found")
	}
	page := func(b []byte, id uint64) []byte { return b[pages+int(id)*pageSize:][:pageSize] }
	// Node header: type byte (1 leaf, 2 internal), cell count, free
	// start, then the next-leaf / leftmost-child id; the slots follow.
	const typeLeaf, typeInternal, offAux, offSlots = 1, 2, 5, 13
	root := binary.BigEndian.Uint64(page(golden, 0)[8:])
	if page(golden, root)[0] != typeInternal {
		t.Fatal("oif golden: the root is not an internal node")
	}
	leaf := root
	for page(golden, leaf)[0] != typeLeaf {
		leaf = binary.BigEndian.Uint64(page(golden, leaf)[offAux:])
	}
	// The first leaf cell: key and value lengths, then the key, then the
	// value, whose first byte is the block's first posting id.
	cell := int(binary.BigEndian.Uint16(page(golden, leaf)[offSlots:]))
	firstID := cell + 4 + int(binary.BigEndian.Uint16(page(golden, leaf)[cell:]))
	if id := page(golden, leaf)[firstID]; id < 2 || id >= 0x80 || uint32(id) > numRecords {
		t.Fatalf("oif golden: the first block starts at id %#x, want a one-byte id of the records", id)
	}
	// A list's non-first block whose key ends in id 0 still sorts after
	// the block before it if its tag is larger: find the first such cell
	// along the leaf chain, so emptying its value leaves every key
	// ascending.
	cellAt := func(b []byte, leaf uint64, i int) int {
		return int(binary.BigEndian.Uint16(page(b, leaf)[offSlots+2*i:]))
	}
	keyAt := func(b []byte, leaf uint64, cell int) []byte {
		p := page(b, leaf)
		return p[cell+4:][:binary.BigEndian.Uint16(p[cell:])]
	}
	emptyLeaf, emptyCell := uint64(0), -1
	var prev []byte
	for l := leaf; l != 0 && emptyCell < 0; l = binary.BigEndian.Uint64(page(golden, l)[offAux:]) {
		for i := 0; i < int(binary.BigEndian.Uint16(page(golden, l)[1:])); i++ {
			cell := cellAt(golden, l, i)
			k := keyAt(golden, l, cell)
			zeroed := append(slices.Clone(k[:len(k)-4]), 0, 0, 0, 0)
			if prev != nil && bytes.Equal(k[:4], prev[:4]) && bytes.Compare(zeroed, prev) > 0 {
				emptyLeaf, emptyCell = l, cell
				break
			}
			prev = k
		}
	}
	if emptyCell < 0 {
		t.Fatal("oif golden: no list has a second block with a larger tag")
	}
	region := -1
	for r := 0; r < domain && region < 0; r++ {
		if word(golden, regions+12*r) != 0 {
			region = regions + 12*r
		}
	}
	if region < 0 {
		t.Fatal("oif golden: every region is empty")
	}
	if l := page(golden, leaf)[firstID+1]; l < 2 || l >= 0x80 {
		t.Fatalf("oif golden: the first posting has length %#x, want a one-byte length of two or more", l)
	}
	// A region of two records or more after a non-empty one, whose start
	// the two rows move.
	second := -1
	for r, prev := 0, -1; r < domain && second < 0; r++ {
		at := regions + 12*r
		if word(golden, at) == 0 {
			continue
		}
		if prev >= 0 && word(golden, at+4) > word(golden, at) {
			second = at
		}
		prev = at
	}
	if second < 0 {
		t.Fatal("oif golden: no region of two records follows another")
	}
	// moveStart starts the second region by records later (earlier if
	// negative), and its singleton run with it if it has none.
	moveStart := func(by int32) []byte {
		return resealed(golden, func(b []byte) {
			l, u1 := word(b, second), word(b, second+8)
			binary.LittleEndian.PutUint32(b[second:], uint32(int32(l)+by))
			if u1 == l-1 {
				binary.LittleEndian.PutUint32(b[second+8:], uint32(int32(u1)+by))
			}
		})
	}
	return map[string][]byte{
		"root is its own leftmost child": resealed(golden, func(b []byte) {
			binary.BigEndian.PutUint64(page(b, root)[offAux:], root)
		}),
		"leaf slot past the page": resealed(golden, func(b []byte) {
			binary.BigEndian.PutUint16(page(b, leaf)[offSlots:], 0xFFF0)
		}),
		"region past the records": resealed(golden, func(b []byte) {
			binary.LittleEndian.PutUint32(b[region+4:], 0xFFFFFFFF) // U
			binary.LittleEndian.PutUint32(b[region+8:], 0xFFFFFFFF) // U1
		}),
		"empty-set run past the records": resealed(golden, func(b []byte) {
			binary.LittleEndian.PutUint32(b[hdr+4*4:], numRecords+1)
		}),
		"posting past the records": resealed(golden, func(b []byte) {
			page(b, leaf)[firstID] = 0x73 // from 0x16: id 115 of 95 records
		}),
		"block's last id not its key's": resealed(golden, func(b []byte) {
			page(b, leaf)[firstID]--
		}),
		"empty block ending at id 0": resealed(golden, func(b []byte) {
			k := keyAt(b, emptyLeaf, emptyCell)
			binary.BigEndian.PutUint32(k[len(k)-4:], 0)
			binary.BigEndian.PutUint16(page(b, emptyLeaf)[emptyCell+2:], 0) // the value's length
		}),
		"posting's length lowered": resealed(golden, func(b []byte) {
			page(b, leaf)[firstID+1]--
		}),
		"posting's length raised": resealed(golden, func(b []byte) {
			page(b, leaf)[firstID+1]++
		}),
		"regions overlap":       moveStart(-1),
		"a gap between regions": moveStart(1),
	}
}

// TestOpenRefusesHostilePages: the checksums only guard against
// accidents, so an OIF snapshot whose pages or metadata a query would
// trust to terminate and to stay inside its pages is a bad snapshot —
// not an index whose first Subset hangs or panics.
func TestOpenRefusesHostilePages(t *testing.T) {
	golden, err := os.ReadFile(goldenPath("oif"))
	if err != nil {
		t.Fatal(err)
	}
	for what, snap := range hostilePages(t, golden) {
		if bytes.Equal(snap, golden) {
			t.Fatalf("%s: the edit changed nothing", what)
		}
		if _, err := Open(bytes.NewReader(snap)); !errors.Is(err, core.ErrBadSnapshot) {
			t.Errorf("%s: Open = %v, want %v", what, err, core.ErrBadSnapshot)
		}
	}
}

// TestOpenIgnoresReservedWord: word 6 of the OIFSNAP2 header once sized
// a per-reader decoded-block cache, so a resealed 0xFFFFFFFF there opened
// cleanly and left every pooled reader without an effective memory
// bound. The word is now reserved: whatever it holds, the snapshot
// opens, answers like the oracle, re-saves byte for byte, and keeps the
// word across a merge's rebuild. (The inverted-file header has no such
// word.) The records and queries repeat TestGoldenSnapshots', which
// stays as PR 15 wrote it.
func TestOpenIgnoresReservedWord(t *testing.T) {
	// The container header and its CRC, the payload magic, six words.
	const word6 = len(containerMagic) + 4*4 + 4 + len("OIFSNAP2") + 6*4
	golden, err := os.ReadFile(goldenPath("oif"))
	if err != nil {
		t.Fatal(err)
	}
	total := goldenBase + goldenEarly + goldenLate
	d := dataset.New(goldenDomain)
	for i := 0; i < total; i++ {
		if _, err := d.Add(goldenSet(i)); err != nil {
			t.Fatal(err)
		}
	}
	dead := append([]uint32{goldenEarlyDelete}, goldenLateDeletes...)
	var queries []Query
	for _, pred := range []Predicate{PredicateSubset, PredicateEquality, PredicateSuperset} {
		queries = append(queries, Query{Pred: pred})
		for a := 0; a < goldenDomain; a++ {
			queries = append(queries,
				Query{Pred: pred, Items: []Item{Item(a)}},
				Query{Pred: pred, Items: []Item{0, Item(a)}},
				Query{Pred: pred, Items: []Item{Item(a), Item((a + 1) % goldenDomain), Item((a + 5) % goldenDomain)}},
				Query{Pred: pred, Items: goldenSet(a * 6)})
		}
		queries = append(queries, Query{Pred: pred, Items: []Item{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}})
	}

	for _, v := range []uint32{0, 1, 0xFFFFFFFF} {
		snap := resealed(golden, func(b []byte) { binary.LittleEndian.PutUint32(b[word6:], v) })
		if bytes.Equal(snap, golden) { // the golden holds 0x8000 there
			t.Fatalf("word %#x: the edit changed nothing", v)
		}
		ix, err := Open(bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("word %#x: Open: %v", v, err)
		}
		for _, q := range queries {
			got, err := ix.Eval(q)
			if err != nil {
				t.Fatalf("word %#x: %s: %v", v, q, err)
			}
			if want := goldenOracle(d, dead, q); !slices.Equal(got, want) {
				t.Fatalf("word %#x: %s: got %v, want %v", v, q, got, want)
			}
		}
		var resaved bytes.Buffer
		if err := ix.Save(&resaved); err != nil {
			t.Fatalf("word %#x: Save: %v", v, err)
		}
		if !bytes.Equal(resaved.Bytes(), snap) {
			t.Fatalf("word %#x: Save(Open(x)) differs from x at offset %d", v, firstDiff(resaved.Bytes(), snap))
		}
		if err := ix.MergeDelta(); err != nil {
			t.Fatalf("word %#x: MergeDelta: %v", v, err)
		}
		resaved.Reset()
		if err := ix.Save(&resaved); err != nil {
			t.Fatalf("word %#x: Save after merge: %v", v, err)
		}
		if got := binary.LittleEndian.Uint32(resaved.Bytes()[word6:]); got != v {
			t.Fatalf("word %#x: the merged index saves %#x there", v, got)
		}
	}

	// A fresh build writes 0.
	var fresh bytes.Buffer
	if err := buildGolden(t, goldenKinds[0].opts).Save(&fresh); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(fresh.Bytes()[word6:]); got != 0 {
		t.Fatalf("a fresh build saves %#x in the reserved word, want 0", got)
	}
}

// FuzzOpenSnapshot feeds Open arbitrary bytes: the answer is an error or
// an index, never a panic, and never an allocation sized by a length
// word the stream does not back with bytes. The seeds are the goldens
// plus the corruptions a torn or bit-rotted checkpoint shows first — a
// cut inside the pending-records section, a cut inside the tombstone
// section, and a length word with a high bit flipped (a count that passes
// the snapio.MaxSliceLen bound but promises gigabytes) — and those a
// checksum cannot catch: a resealed out-of-domain pending item, the
// resealed hostile tombstone sections of hostileTombstones, and the
// resealed hostile pages, list blocks and metadata of hostilePages. Any
// index Open accepts must save, and must answer a single-item Subset for every item of
// its domain — which reads every list and the metadata table — and a
// two-item Subset for every adjacent pair of items — which filters
// candidates through a list and scans its region — with an answer or an
// error, so a hostile list that one query would miss is still read.
func FuzzOpenSnapshot(f *testing.F) {
	// The single-engine goldens hold the sections verbatim; find them by
	// their encoded content: the first pending record and the sorted
	// tombstone list.
	records := bytes.NewBuffer(goldenFirstPending())
	tombstones := bytes.NewBuffer(goldenTombstones())

	for _, k := range goldenKinds {
		golden, err := os.ReadFile(goldenPath(k.name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
		if k.name == "sharded2" {
			continue // shard-local ids; the nested frames are the formats above
		}
		rec, tomb := bytes.Index(golden, records.Bytes()), bytes.Index(golden, tombstones.Bytes())
		if rec < 0 || tomb < 0 {
			f.Fatalf("%s: sections not found (records %d, tombstones %d)", k.name, rec, tomb)
		}
		f.Add(golden[:rec+records.Len()/2])
		f.Add(golden[:tomb+tombstones.Len()/2])
		flipped := slices.Clone(golden)
		flipped[tomb+3] ^= 0x40 // the count's fourth byte: 6 becomes 2^30+6
		f.Add(flipped)
		f.Add(hostilePending(golden, rec)["item outside the domain"])
		for _, snap := range hostileTombstones(golden, tomb) {
			f.Add(snap)
		}
		if k.name == "oif" {
			for _, snap := range hostilePages(f, golden) {
				f.Add(snap)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := Open(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Save rebuilds the OIF's sequence forms from its lists and
		// metadata table, which Open proved describe one collection.
		if err := ix.Save(io.Discard); err != nil {
			t.Fatalf("Save of an index Open accepted: %v", err)
		}
		if ix.PendingInserts() > ix.NumRecords() || ix.PendingInserts() < 0 {
			t.Fatalf("opened an index with %d pending of %d records", ix.PendingInserts(), ix.NumRecords())
		}
		// An error is an answer; a hang or a panic is not.
		for it, n := 0, ix.Engine().DomainSize(); it < n; it++ {
			ix.Subset([]Item{Item(it)})
			if it+1 < n {
				ix.Subset([]Item{Item(it), Item(it + 1)})
			}
		}
	})
}

// goldenQueries are TestGoldenSnapshots' queries: every predicate over
// the empty set, every single item, and a spread of pairs, triples and
// wide sets.
func goldenQueries() []Query {
	var queries []Query
	for _, pred := range []Predicate{PredicateSubset, PredicateEquality, PredicateSuperset} {
		queries = append(queries, Query{Pred: pred})
		for a := 0; a < goldenDomain; a++ {
			queries = append(queries,
				Query{Pred: pred, Items: []Item{Item(a)}},
				Query{Pred: pred, Items: []Item{0, Item(a)}},
				Query{Pred: pred, Items: []Item{Item(a), Item((a + 1) % goldenDomain), Item((a + 5) % goldenDomain)}},
				Query{Pred: pred, Items: goldenSet(a * 6)})
		}
		queries = append(queries, Query{Pred: pred, Items: []Item{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}})
	}
	return queries
}

// TestMergeReadsTheLists: an OIF snapshot holds the collection twice —
// in its lists and metadata table, which queries read, and in the
// sequence-form arena of its re-ordering section — and Open reads past
// the arena. The golden is resealed with one rank of one live record's
// form in the arena replaced by the next rank, which the record does not
// hold; the index must answer like the oracle before and after an
// Insert and a MergeDelta, whose rebuild must read the records from the
// lists, not from the arena.
func TestMergeReadsTheLists(t *testing.T) {
	golden, err := os.ReadFile(goldenPath("oif"))
	if err != nil {
		t.Fatal(err)
	}
	// The container header and its CRC, the payload magic, eight header
	// words, the item order and the regions; then the arena, the
	// offsets and the new-id -> source-position permutation, each a u64
	// count and its words.
	const hdr = len(containerMagic) + 4*4 + 4 + len("OIFSNAP2")
	word := func(off int) uint32 { return binary.LittleEndian.Uint32(golden[off:]) }
	numRecords, domain := int(word(hdr+2*4)), int(word(hdr+3*4))
	flatAt := hdr + 8*4 + 8 + 4*domain + 8 + 12*domain
	ranks := int(binary.LittleEndian.Uint64(golden[flatAt:]))
	offAt := flatAt + 8 + 4*ranks
	permAt := offAt + 8 + 4*(numRecords+1)
	if n := binary.LittleEndian.Uint64(golden[offAt:]); n != uint64(numRecords)+1 {
		t.Fatalf("oif golden: %d offsets for %d records", n, numRecords)
	}
	dead := append([]uint32{goldenEarlyDelete}, goldenLateDeletes...)
	at := -1 // the arena word of the rank to replace: a live record's last, below the domain's last
	for id := 1; id <= numRecords && at < 0; id++ {
		lo, hi := int(word(offAt+8+4*(id-1))), int(word(offAt+8+4*id))
		orig := word(permAt+8+4*(id-1)) + 1
		if hi-lo >= 2 && int(word(flatAt+8+4*(hi-1))) < domain-1 && !slices.Contains(dead, orig) {
			at = flatAt + 8 + 4*(hi-1)
		}
	}
	if at < 0 {
		t.Fatal("oif golden: no live record of two ranks or more ends below the domain's last rank")
	}
	snap := resealed(golden, func(b []byte) {
		binary.LittleEndian.PutUint32(b[at:], binary.LittleEndian.Uint32(b[at:])+1)
	})

	d := dataset.New(goldenDomain)
	for i := 0; i < goldenBase+goldenEarly+goldenLate; i++ {
		if _, err := d.Add(goldenSet(i)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Open(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	check := func(stage string) {
		t.Helper()
		for _, q := range goldenQueries() {
			got, err := ix.Eval(q)
			if err != nil {
				t.Fatalf("%s %s: %v", stage, q, err)
			}
			if want := goldenOracle(d, dead, q); !slices.Equal(got, want) {
				t.Fatalf("%s %s: got %v, want %v", stage, q, got, want)
			}
		}
	}
	check("restored")
	set := goldenSet(d.Len())
	id, err := ix.Insert(set)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := d.Add(set); err != nil || id != want {
		t.Fatalf("Insert gave id %d, want %d (%v)", id, want, err)
	}
	if err := ix.MergeDelta(); err != nil {
		t.Fatalf("MergeDelta: %v", err)
	}
	check("merged")
}
