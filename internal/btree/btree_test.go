package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/storage"
)

func newTestTree(t testing.TB, pageSize, poolPages int) *BTree {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemPager(pageSize), poolPages)
	tree, err := New(pool)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tree
}

func TestInsertGetSmall(t *testing.T) {
	tree := newTestTree(t, 256, 64)
	pairs := map[string]string{
		"apple": "1", "banana": "2", "cherry": "3", "date": "4",
	}
	for k, v := range pairs {
		if err := tree.Insert([]byte(k), []byte(v)); err != nil {
			t.Fatalf("Insert(%s): %v", k, err)
		}
	}
	for k, v := range pairs {
		got, err := tree.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if string(got) != v {
			t.Errorf("Get(%s) = %s, want %s", k, got, v)
		}
	}
	if _, err := tree.Get([]byte("missing")); err != ErrNotFound {
		t.Errorf("Get(missing) = %v, want ErrNotFound", err)
	}
}

func TestInsertUpsert(t *testing.T) {
	tree := newTestTree(t, 256, 64)
	if err := tree.Insert([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert([]byte("k"), []byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	got, err := tree.Get([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2-longer" {
		t.Fatalf("after upsert Get = %q", got)
	}
	n, err := tree.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Len = %d after upsert, want 1", n)
	}
}

func u32key(v uint32) []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, v)
	return b
}

func TestManyInsertsSplitAndOrder(t *testing.T) {
	tree := newTestTree(t, 256, 128)
	const n = 5000
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, i := range perm {
		if err := tree.Insert(u32key(uint32(i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
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
	for i := 0; i < n; i++ {
		if !c.Valid() {
			t.Fatalf("cursor exhausted at %d", i)
		}
		if got := binary.BigEndian.Uint32(c.Key()); got != uint32(i) {
			t.Fatalf("scan position %d has key %d", i, got)
		}
		if want := fmt.Sprintf("val-%d", i); string(c.Value()) != want {
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
	tree := newTestTree(t, 256, 64)
	for _, v := range []uint32{10, 20, 30, 40, 50} {
		if err := tree.Insert(u32key(v), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
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
	tree := newTestTree(t, 512, 64)
	type rec struct {
		group uint32
		tag   string
		id    uint32
	}
	var recs []rec
	for g := uint32(0); g < 5; g++ {
		for i := uint32(0); i < 50; i++ {
			// tag grows with id so both orders agree
			recs = append(recs, rec{g, fmt.Sprintf("tag-%04d", i*3), i*3 + 1})
		}
	}
	mk := func(r rec) []byte {
		k := make([]byte, 0, 4+len(r.tag)+4)
		k = binary.BigEndian.AppendUint32(k, r.group)
		k = append(k, r.tag...)
		k = binary.BigEndian.AppendUint32(k, r.id)
		return k
	}
	for _, r := range recs {
		if err := tree.Insert(mk(r), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
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

func TestDelete(t *testing.T) {
	tree := newTestTree(t, 256, 64)
	for i := uint32(0); i < 500; i++ {
		if err := tree.Insert(u32key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < 500; i += 2 {
		ok, err := tree.Delete(u32key(i))
		if err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", i, ok, err)
		}
	}
	ok, err := tree.Delete(u32key(2))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("double delete reported success")
	}
	n, err := tree.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 250 {
		t.Fatalf("Len = %d after deletes, want 250", n)
	}
	c, err := tree.First()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(1); i < 500; i += 2 {
		if !c.Valid() {
			t.Fatalf("cursor exhausted at %d", i)
		}
		if got := binary.BigEndian.Uint32(c.Key()); got != i {
			t.Fatalf("after deletes scan found %d, want %d", got, i)
		}
		if err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCursorSkipsEmptiedLeaves(t *testing.T) {
	tree := newTestTree(t, 256, 64)
	for i := uint32(0); i < 400; i++ {
		if err := tree.Insert(u32key(i), bytes.Repeat([]byte("x"), 20)); err != nil {
			t.Fatal(err)
		}
	}
	// Empty out a middle run of keys, which empties whole leaves.
	for i := uint32(100); i < 300; i++ {
		if _, err := tree.Delete(u32key(i)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := tree.Seek(u32key(100), BytewiseCompare)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Valid() {
		t.Fatal("cursor invalid")
	}
	if got := binary.BigEndian.Uint32(c.Key()); got != 300 {
		t.Fatalf("seek over emptied leaves landed on %d, want 300", got)
	}
}

func TestRandomizedAgainstSortedMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tree := newTestTree(t, 512, 256)
	shadow := make(map[string]string)
	for step := 0; step < 20000; step++ {
		k := fmt.Sprintf("key-%06d", rng.Intn(5000))
		switch rng.Intn(4) {
		case 0, 1: // insert/update
			v := fmt.Sprintf("val-%d", step)
			if err := tree.Insert([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			shadow[k] = v
		case 2: // delete
			ok, err := tree.Delete([]byte(k))
			if err != nil {
				t.Fatal(err)
			}
			_, want := shadow[k]
			if ok != want {
				t.Fatalf("step %d: Delete(%s) = %v, want %v", step, k, ok, want)
			}
			delete(shadow, k)
		default: // lookup
			got, err := tree.Get([]byte(k))
			want, present := shadow[k]
			if present {
				if err != nil || string(got) != want {
					t.Fatalf("step %d: Get(%s) = %q, %v; want %q", step, k, got, err, want)
				}
			} else if err != ErrNotFound {
				t.Fatalf("step %d: Get(%s) err = %v, want ErrNotFound", step, k, err)
			}
		}
	}
	// Final full comparison via ordered scan.
	keys := make([]string, 0, len(shadow))
	for k := range shadow {
		keys = append(keys, k)
	}
	sort.Strings(keys)
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
	tree := newTestTree(t, 4096, 64)
	rng := rand.New(rand.NewSource(5))
	vals := make(map[uint32][]byte)
	for i := 0; i < 1000; i++ {
		k := uint32(i)
		v := make([]byte, rng.Intn(800))
		rng.Read(v)
		vals[k] = v
		if err := tree.Insert(u32key(k), v); err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range vals {
		got, err := tree.Get(u32key(k))
		if err != nil {
			t.Fatalf("Get(%d): %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("Get(%d) returned %d bytes, want %d", k, len(got), len(v))
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEntryTooLarge(t *testing.T) {
	tree := newTestTree(t, 256, 16)
	big := make([]byte, 300)
	if err := tree.Insert([]byte("k"), big); err == nil {
		t.Fatal("oversized insert succeeded")
	}
}

func TestOpenExisting(t *testing.T) {
	pager := storage.NewMemPager(512)
	pool := storage.NewBufferPool(pager, 64)
	tree, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 2000; i++ {
		if err := tree.Insert(u32key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	// Re-open through a fresh pool over the same pager.
	pool2 := storage.NewBufferPool(pager, 8)
	tree2, err := Open(pool2)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got, err := tree2.Get(u32key(1234))
	if err != nil || string(got) != "v" {
		t.Fatalf("Get after reopen = %q, %v", got, err)
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
	pager := storage.NewMemPager(512)
	big := storage.NewBufferPool(pager, 256)
	tree, err := New(big)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 3000; i++ {
		if err := tree.Insert(u32key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	small := storage.NewBufferPool(pager, 8)
	if err := tree.SetPool(small); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Get(u32key(2999)); err != nil {
		t.Fatalf("Get through small pool: %v", err)
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
	// A point Get on a cold pool must touch exactly height pages
	// (plus the meta page is never read after New).
	pager := storage.NewMemPager(512)
	build := storage.NewBufferPool(pager, 256)
	tree, err := New(build)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 5000; i++ {
		if err := tree.Insert(u32key(i), bytes.Repeat([]byte("v"), 16)); err != nil {
			t.Fatal(err)
		}
	}
	h, err := tree.Height()
	if err != nil {
		t.Fatal(err)
	}
	small := storage.NewBufferPool(pager, 8)
	if err := tree.SetPool(small); err != nil {
		t.Fatal(err)
	}
	small.ResetStats()
	if _, err := tree.Get(u32key(2500)); err != nil {
		t.Fatal(err)
	}
	if got := small.Stats().Misses; got != int64(h) {
		t.Fatalf("cold Get cost %d page accesses, want height %d", got, h)
	}
}

func BenchmarkInsertSequential(b *testing.B) {
	tree := newTestTree(b, 4096, 1024)
	val := bytes.Repeat([]byte("v"), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Insert(u32key(uint32(i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetWarm(b *testing.B) {
	tree := newTestTree(b, 4096, 1024)
	val := bytes.Repeat([]byte("v"), 64)
	const n = 100000
	for i := 0; i < n; i++ {
		if err := tree.Insert(u32key(uint32(i)), val); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Get(u32key(uint32(i % n))); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCursorHoldsNoPinAndOwnsItsLeaf pins the cursor's contract under a
// 2-page pool: after a seek and a Next across a leaf boundary no page is
// pinned, Key and Value are the cursor's own bytes — they survive the
// pool reusing the leaf's frame — and their capacity is clipped, so an
// append cannot reach the neighbouring cell.
func TestCursorHoldsNoPinAndOwnsItsLeaf(t *testing.T) {
	pager := storage.NewMemPager(512)
	tree, err := New(storage.NewBufferPool(pager, 256))
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	val := func(i uint32) []byte { return []byte(fmt.Sprintf("value-%05d", i)) }
	for i := uint32(0); i < n; i++ {
		if err := tree.Insert(u32key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	small := storage.NewBufferPool(pager, 2)
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
		if _, err := tree.Get(u32key(k)); err != nil {
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
