package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/storage"
)

func u32key(v uint32) []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, v)
	return b
}

// u32Tree bulk-loads the keys u32key(0) … u32key(n-1), key i holding
// val(i), into a fresh pager behind a pool of poolPages pages.
func u32Tree(t testing.TB, pageSize, poolPages, n int, val func(i uint32) []byte) *BTree {
	t.Helper()
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i], vals[i] = u32key(uint32(i)), val(uint32(i))
	}
	return bulkFromPairs(t, pageSize, poolPages, keys, vals)
}

// lookup is a point lookup built from Seek, as the indexes' own probes
// are: the value stored under key, or found=false. The value is the
// cursor's, valid until the next lookup.
func lookup(tree *BTree, key []byte) (value []byte, found bool, err error) {
	c, err := tree.Seek(key, BytewiseCompare)
	if err != nil || !c.Valid() || !bytes.Equal(c.Key(), key) {
		return nil, false, err
	}
	return c.Value(), true, nil
}

func TestInsertGetSmall(t *testing.T) {
	keys := [][]byte{[]byte("apple"), []byte("banana"), []byte("cherry"), []byte("date")}
	vals := [][]byte{[]byte("1"), []byte("2"), []byte("3"), []byte("4")}
	tree := bulkFromPairs(t, 256, 64, keys, vals)
	for i, k := range keys {
		got, found, err := lookup(tree, k)
		if err != nil || !found || !bytes.Equal(got, vals[i]) {
			t.Errorf("lookup(%s) = %q, %v, %v; want %s", k, got, found, err, vals[i])
		}
	}
	for _, k := range []string{"missing", "a", "zebra"} {
		if _, found, err := lookup(tree, []byte(k)); err != nil || found {
			t.Errorf("lookup(%s) = found %v, %v; want absent", k, found, err)
		}
	}
}

func TestManyInsertsSplitAndOrder(t *testing.T) {
	const n = 5000
	val := func(i uint32) []byte { return []byte(fmt.Sprintf("val-%d", i)) }
	tree := u32Tree(t, 256, 128, n, val)
	h, err := tree.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 3 {
		t.Fatalf("height %d, expected a multi-level tree", h)
	}
	// Full ordered scan must yield 0..n-1.
	c, err := tree.First()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < n; i++ {
		if !c.Valid() {
			t.Fatalf("cursor exhausted at %d", i)
		}
		if got := binary.BigEndian.Uint32(c.Key()); got != i {
			t.Fatalf("scan position %d has key %d", i, got)
		}
		if want := val(i); !bytes.Equal(c.Value(), want) {
			t.Fatalf("scan position %d has value %q, want %q", i, c.Value(), want)
		}
		if err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Valid() {
		t.Fatal("cursor valid past the end")
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSeekSemantics(t *testing.T) {
	var keys, vals [][]byte
	for _, v := range []uint32{10, 20, 30, 40, 50} {
		keys, vals = append(keys, u32key(v)), append(vals, []byte("x"))
	}
	tree := bulkFromPairs(t, 256, 64, keys, vals)
	cases := []struct {
		probe uint32
		want  uint32
		valid bool
	}{
		{0, 10, true}, {10, 10, true}, {11, 20, true},
		{30, 30, true}, {31, 40, true}, {50, 50, true}, {51, 0, false},
	}
	for _, tc := range cases {
		c, err := tree.Seek(u32key(tc.probe), BytewiseCompare)
		if err != nil {
			t.Fatalf("Seek(%d): %v", tc.probe, err)
		}
		if c.Valid() != tc.valid {
			t.Fatalf("Seek(%d).Valid = %v, want %v", tc.probe, c.Valid(), tc.valid)
		}
		if tc.valid {
			if got := binary.BigEndian.Uint32(c.Key()); got != tc.want {
				t.Errorf("Seek(%d) landed on %d, want %d", tc.probe, got, tc.want)
			}
		}
	}
}

// TestSeekCustomComparator exercises the OIF-style probe: keys are
// (group uint32 | tag bytes | id uint32) and the probe compares only
// (group, id), ignoring the variable-length tag. Within a group, tag order
// and id order must coincide — as they do in the OIF.
func TestSeekCustomComparator(t *testing.T) {
	var keys, vals [][]byte
	for g := uint32(0); g < 5; g++ {
		for i := uint32(0); i < 50; i++ {
			// tag grows with id so both orders agree
			k := binary.BigEndian.AppendUint32(nil, g)
			k = append(k, fmt.Sprintf("tag-%04d", i*3)...)
			k = binary.BigEndian.AppendUint32(k, i*3+1)
			keys, vals = append(keys, k), append(vals, []byte("v"))
		}
	}
	tree := bulkFromPairs(t, 512, 64, keys, vals)
	idCmp := func(probe, key []byte) int {
		if c := bytes.Compare(probe[:4], key[:4]); c != 0 {
			return c
		}
		pid := binary.BigEndian.Uint32(probe[4:])
		kid := binary.BigEndian.Uint32(key[len(key)-4:])
		switch {
		case pid < kid:
			return -1
		case pid > kid:
			return 1
		}
		return 0
	}
	probe := func(g, id uint32) []byte {
		b := make([]byte, 8)
		binary.BigEndian.PutUint32(b, g)
		binary.BigEndian.PutUint32(b[4:], id)
		return b
	}
	// Seek group 2, id 50 -> first key in group 2 with id >= 50 is id 52
	// (ids are 1, 4, 7, ... 3i+1).
	c, err := tree.Seek(probe(2, 50), idCmp)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Valid() {
		t.Fatal("seek ran off the end")
	}
	gotGroup := binary.BigEndian.Uint32(c.Key()[:4])
	gotID := binary.BigEndian.Uint32(c.Key()[len(c.Key())-4:])
	if gotGroup != 2 || gotID != 52 {
		t.Fatalf("landed on group %d id %d, want group 2 id 52", gotGroup, gotID)
	}
	// Seeking past a group's last id lands on the next group's first key.
	c, err = tree.Seek(probe(2, 1000), idCmp)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Valid() {
		t.Fatal("seek ran off the end")
	}
	if g := binary.BigEndian.Uint32(c.Key()[:4]); g != 3 {
		t.Fatalf("landed on group %d, want 3", g)
	}
}

// TestRandomizedAgainstSortedMap bulk-loads a random key set and holds
// point lookups of present and absent keys, and a full scan, to a map.
func TestRandomizedAgainstSortedMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shadow := make(map[string]string)
	for step := 0; step < 20000; step++ {
		shadow[fmt.Sprintf("key-%06d", rng.Intn(5000))] = fmt.Sprintf("val-%d", step)
	}
	keys := make([]string, 0, len(shadow))
	for k := range shadow {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var bkeys, bvals [][]byte
	for _, k := range keys {
		bkeys, bvals = append(bkeys, []byte(k)), append(bvals, []byte(shadow[k]))
	}
	tree := bulkFromPairs(t, 512, 256, bkeys, bvals)

	for step := 0; step < 20000; step++ {
		k := fmt.Sprintf("key-%06d", rng.Intn(5500))
		got, found, err := lookup(tree, []byte(k))
		if err != nil {
			t.Fatal(err)
		}
		want, present := shadow[k]
		if found != present || string(got) != want {
			t.Fatalf("step %d: lookup(%s) = %q, %v; want %q, %v", step, k, got, found, want, present)
		}
	}
	c, err := tree.First()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !c.Valid() {
			t.Fatalf("cursor exhausted before %s", k)
		}
		if string(c.Key()) != k {
			t.Fatalf("scan found %q, want %q", c.Key(), k)
		}
		if string(c.Value()) != shadow[k] {
			t.Fatalf("scan value for %s = %q, want %q", k, c.Value(), shadow[k])
		}
		if err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Valid() {
		t.Fatalf("extra key after scan: %q", c.Key())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVariableSizedValues(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([][]byte, 1000)
	for i := range vals {
		vals[i] = make([]byte, rng.Intn(800))
		rng.Read(vals[i])
	}
	tree := u32Tree(t, 4096, 64, len(vals), func(i uint32) []byte { return vals[i] })
	for k, v := range vals {
		got, found, err := lookup(tree, u32key(uint32(k)))
		if err != nil || !found {
			t.Fatalf("lookup(%d) = found %v, %v", k, found, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("lookup(%d) returned %d bytes, want %d", k, len(got), len(v))
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEntryTooLarge(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewMemPager(256), 16)
	done := false
	_, err := BulkLoad(pool, func() ([]byte, []byte, bool, error) {
		if done {
			return nil, nil, false, nil
		}
		done = true
		return []byte("k"), make([]byte, 300), true, nil
	})
	if !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("oversized entry: BulkLoad returned %v, want ErrKeyTooLarge", err)
	}
}

func TestOpenExisting(t *testing.T) {
	tree := u32Tree(t, 512, 64, 2000, func(uint32) []byte { return []byte("v") })
	// Re-open through a fresh pool over the same pager.
	tree2, err := Open(storage.NewBufferPool(tree.Pool().Pager(), 8))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got, found, err := lookup(tree2, u32key(1234))
	if err != nil || !found || string(got) != "v" {
		t.Fatalf("lookup after reopen = %q, %v, %v", got, found, err)
	}
	n, err := tree2.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Fatalf("Len after reopen = %d", n)
	}
}

func TestSetPool(t *testing.T) {
	tree := u32Tree(t, 512, 256, 3000, func(uint32) []byte { return []byte("v") })
	small := storage.NewBufferPool(tree.Pool().Pager(), 8)
	if err := tree.SetPool(small); err != nil {
		t.Fatal(err)
	}
	if _, found, err := lookup(tree, u32key(2999)); err != nil || !found {
		t.Fatalf("lookup through small pool: found %v, %v", found, err)
	}
	if small.Stats().Misses == 0 {
		t.Fatal("small pool recorded no misses; SetPool did not take effect")
	}
	other := storage.NewBufferPool(storage.NewMemPager(512), 8)
	if err := tree.SetPool(other); err == nil {
		t.Fatal("SetPool with foreign pager succeeded")
	}
}

func TestPageAccessAccounting(t *testing.T) {
	// A point lookup on a cold pool must touch exactly height pages (the
	// meta page is read only by Open).
	tree := u32Tree(t, 512, 256, 5000, func(uint32) []byte { return bytes.Repeat([]byte("v"), 16) })
	h, err := tree.Height()
	if err != nil {
		t.Fatal(err)
	}
	small := storage.NewBufferPool(tree.Pool().Pager(), 8)
	if err := tree.SetPool(small); err != nil {
		t.Fatal(err)
	}
	small.ResetStats()
	if _, found, err := lookup(tree, u32key(2500)); err != nil || !found {
		t.Fatalf("lookup: found %v, %v", found, err)
	}
	if got := small.Stats().Misses; got != int64(h) {
		t.Fatalf("cold lookup cost %d page accesses, want height %d", got, h)
	}
}

func BenchmarkGetWarm(b *testing.B) {
	const n = 100000
	val := bytes.Repeat([]byte("v"), 64)
	tree := u32Tree(b, 4096, 1024, n, func(uint32) []byte { return val })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := lookup(tree, u32key(uint32(i%n))); err != nil || !found {
			b.Fatalf("lookup: found %v, %v", found, err)
		}
	}
}

// TestCursorHoldsNoPinAndOwnsItsLeaf pins the cursor's contract under a
// 2-page pool: after a seek and a Next across a leaf boundary no page is
// pinned, Key and Value are the cursor's own bytes — they survive the
// pool reusing the leaf's frame — and their capacity is clipped, so an
// append cannot reach the neighbouring cell.
func TestCursorHoldsNoPinAndOwnsItsLeaf(t *testing.T) {
	const n = 3000
	val := func(i uint32) []byte { return []byte(fmt.Sprintf("value-%05d", i)) }
	tree := u32Tree(t, 512, 256, n, val)
	small := storage.NewBufferPool(tree.Pool().Pager(), 2)
	if err := tree.SetPool(small); err != nil {
		t.Fatal(err)
	}

	c, err := tree.Seek(u32key(1000), BytewiseCompare)
	if err != nil {
		t.Fatal(err)
	}
	at := uint32(1000)
	for crossed := false; !crossed; at++ {
		before := small.Stats().Accesses()
		if err := c.Next(); err != nil {
			t.Fatal(err)
		}
		crossed = small.Stats().Accesses() > before // a Next that fetched the next leaf
	}
	if !c.Valid() {
		t.Fatal("cursor ran off the tree before crossing a leaf")
	}

	// Evict and reuse both frames, then drop them: neither may be pinned.
	for _, k := range []uint32{0, n - 1} {
		if _, _, err := lookup(tree, u32key(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := small.DropAll(); err != nil {
		t.Fatalf("a page is still pinned after Seek and Next: %v", err)
	}

	k, v := c.Key(), c.Value()
	if !bytes.Equal(k, u32key(at)) || !bytes.Equal(v, val(at)) {
		t.Fatalf("entry after frame reuse = (%x, %q), want (%x, %q)", k, v, u32key(at), val(at))
	}
	if cap(k) != len(k) || cap(v) != len(v) {
		t.Fatalf("Key cap %d len %d, Value cap %d len %d: capacity not clipped", cap(k), len(k), cap(v), len(v))
	}
}
