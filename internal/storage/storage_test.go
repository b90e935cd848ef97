package storage

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"
)

func testPagerBasics(t *testing.T, p Pager) {
	t.Helper()
	if p.NumPages() != 0 {
		t.Fatalf("fresh pager has %d pages, want 0", p.NumPages())
	}
	id0, err := p.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if id0 != 0 {
		t.Fatalf("first page id = %d, want 0", id0)
	}
	id1, err := p.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if id1 != 1 {
		t.Fatalf("second page id = %d, want 1", id1)
	}

	buf := make([]byte, p.PageSize())
	for i := range buf {
		buf[i] = byte(i % 251)
	}
	if err := p.WritePage(id1, buf); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	got := make([]byte, p.PageSize())
	if err := p.ReadPage(id1, got); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("read back different bytes than written")
	}
	// Page 0 must still be zeroed.
	if err := p.ReadPage(id0, got); err != nil {
		t.Fatalf("ReadPage(0): %v", err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("page 0 byte %d = %d, want 0", i, b)
		}
	}
}

func testPagerErrors(t *testing.T, p Pager) {
	t.Helper()
	buf := make([]byte, p.PageSize())
	if err := p.ReadPage(PageID(p.NumPages()), buf); err == nil {
		t.Error("ReadPage past end succeeded, want error")
	}
	if err := p.ReadPage(-1, buf); err == nil {
		t.Error("ReadPage(-1) succeeded, want error")
	}
	short := make([]byte, p.PageSize()-1)
	if _, err := p.Allocate(); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := p.ReadPage(0, short); err == nil {
		t.Error("ReadPage with short buffer succeeded, want error")
	}
	if err := p.WritePage(0, short); err == nil {
		t.Error("WritePage with short buffer succeeded, want error")
	}
}

func TestMemPagerBasics(t *testing.T)  { testPagerBasics(t, NewMemPager(512)) }
func TestMemPagerErrors(t *testing.T)  { testPagerErrors(t, NewMemPager(512)) }
func TestFilePagerBasics(t *testing.T) { testPagerBasics(t, newTempFilePager(t, 512)) }
func TestFilePagerErrors(t *testing.T) { testPagerErrors(t, newTempFilePager(t, 512)) }

func newTempFilePager(t *testing.T, pageSize int) *FilePager {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := CreateFilePager(path, pageSize)
	if err != nil {
		t.Fatalf("CreateFilePager: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestFilePagerReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := CreateFilePager(path, 256)
	if err != nil {
		t.Fatalf("CreateFilePager: %v", err)
	}
	want := make([]byte, 256)
	for i := range want {
		want[i] = byte(i)
	}
	if _, err := p.Allocate(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := p.WritePage(1, want); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	q, err := OpenFilePager(path, 256)
	if err != nil {
		t.Fatalf("OpenFilePager: %v", err)
	}
	defer q.Close()
	if q.NumPages() != 2 {
		t.Fatalf("reopened pager has %d pages, want 2", q.NumPages())
	}
	got := make([]byte, 256)
	if err := q.ReadPage(1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("reopened page contents differ")
	}
}

func TestFilePagerOpenBadSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := CreateFilePager(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := OpenFilePager(path, 512); err == nil {
		t.Fatal("OpenFilePager with mismatched page size succeeded, want error")
	}
}

func TestMemPagerClosed(t *testing.T) {
	p := NewMemPager(128)
	if _, err := p.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate(); err == nil {
		t.Error("Allocate after Close succeeded")
	}
	if err := p.ReadPage(0, make([]byte, 128)); err == nil {
		t.Error("ReadPage after Close succeeded")
	}
}

func TestBufferPoolHitsAndMisses(t *testing.T) {
	pool := NewBufferPool(NewMemPager(128), 2)
	for i := 0; i < 3; i++ {
		if _, err := pool.Pager().Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	// First touch of each page is a miss.
	for i := PageID(0); i < 3; i++ {
		b, err := pool.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		_ = b
		pool.Put(i)
	}
	s := pool.Stats()
	if s.Misses != 3 || s.Hits != 0 {
		t.Fatalf("stats after cold reads: %v, want 3 misses 0 hits", s)
	}
	if s.SeqMisses != 2 || s.RandMisses != 1 {
		t.Fatalf("sequentiality: %v, want 2 seq 1 rand", s)
	}
	// Page 2 is hot (capacity 2 kept pages 1,2); page 0 was evicted.
	if _, err := pool.Get(2); err != nil {
		t.Fatal(err)
	}
	pool.Put(2)
	if got := pool.Stats().Hits; got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	if _, err := pool.Get(0); err != nil {
		t.Fatal(err)
	}
	pool.Put(0)
	st := pool.Stats()
	if st.Misses != 4 {
		t.Fatalf("misses = %d, want 4 after LRU eviction", st.Misses)
	}
	// The re-read of page 0 jumped back 2 pages: a near miss.
	if st.NearMisses != 1 {
		t.Fatalf("near misses = %d, want 1", st.NearMisses)
	}
}

// filledPager returns a pager of n pages, every byte of page id being
// byte(id+1): pages written once, before any pool reads them.
func filledPager(t *testing.T, pageSize, n int) *MemPager {
	t.Helper()
	p := NewMemPager(pageSize)
	buf := make([]byte, pageSize)
	for i := 0; i < n; i++ {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(id + 1)
		}
		if err := p.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestBufferPoolPinPreventsEviction(t *testing.T) {
	pool := NewBufferPool(filledPager(t, 64, 5), 2)
	// Page 0 stays pinned while the rest stream through the other frame;
	// the pool must evict around the pin.
	if _, err := pool.Get(0); err != nil {
		t.Fatal(err)
	}
	for id := PageID(1); id < 5; id++ {
		if _, err := pool.Get(id); err != nil {
			t.Fatal(err)
		}
		pool.Put(id)
	}
	// The pinned page must still be resident: re-Get must be a hit.
	before := pool.Stats().Misses
	if _, err := pool.Get(0); err != nil {
		t.Fatal(err)
	}
	pool.Put(0)
	pool.Put(0) // release the original pin
	if pool.Stats().Misses != before {
		t.Fatal("pinned page was evicted")
	}
}

func TestBufferPoolAllPinnedFails(t *testing.T) {
	pool := NewBufferPool(filledPager(t, 64, 2), 1)
	if _, err := pool.Get(0); err != nil { // keep pinned
		t.Fatal(err)
	}
	if _, err := pool.Get(1); err == nil {
		t.Fatal("Get with all frames pinned succeeded, want error")
	}
}

func TestBufferPoolDropAll(t *testing.T) {
	pool := NewBufferPool(filledPager(t, 64, 2), 4)
	if _, err := pool.Get(1); err != nil {
		t.Fatal(err)
	}
	// DropAll refuses a pinned frame and leaves the cache as it was.
	if err := pool.DropAll(); err == nil {
		t.Fatal("DropAll with a pinned page succeeded")
	}
	if err := pool.Put(1); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Get(1); err != nil {
		t.Fatal(err)
	}
	if err := pool.Put(1); err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats(); got.Hits != 1 || got.Misses != 1 {
		t.Fatalf("refused DropAll changed the cache: %v, want 1 hit 1 miss", got)
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	b, err := pool.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Put(1)
	if b[0] != 2 {
		t.Fatalf("page 1 read back as %#x after DropAll, want 0x02", b[0])
	}
	if pool.Stats().Misses != 1 {
		t.Fatal("page survived DropAll in cache")
	}
}

func TestBufferPoolRandomizedAgainstPager(t *testing.T) {
	// Property: a pool over a pager reads exactly what the pager holds,
	// whatever the mix of hits, misses, evictions and held pins.
	rng := rand.New(rand.NewSource(42))
	mem := NewMemPager(32)
	shadow := make([][]byte, 64)
	for range shadow {
		id, err := mem.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		shadow[id] = make([]byte, 32)
		rng.Read(shadow[id])
		if err := mem.WritePage(id, shadow[id]); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewBufferPool(mem, 3)
	var held []PageID // at most two pins outlive a step
	for step := 0; step < 2000; step++ {
		id := PageID(rng.Intn(len(shadow)))
		b, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, shadow[id]) {
			t.Fatalf("step %d: page %d contents diverged", step, id)
		}
		held = append(held, id)
		for len(held) > 2 || (len(held) > 0 && rng.Intn(2) == 0) {
			if err := pool.Put(held[0]); err != nil {
				t.Fatal(err)
			}
			held = held[1:]
		}
	}
	if st := pool.Stats(); st.Accesses() != 2000 || st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("stats %v after 2000 Gets over 64 pages", st)
	}
}

func TestAccessStatsArithmetic(t *testing.T) {
	a := AccessStats{Hits: 10, Misses: 5, SeqMisses: 3, NearMisses: 1, RandMisses: 2}
	b := AccessStats{Hits: 4, Misses: 2, SeqMisses: 1, NearMisses: 1, RandMisses: 1}
	d := a.Sub(b)
	if d.Hits != 6 || d.Misses != 3 || d.SeqMisses != 2 || d.NearMisses != 0 || d.RandMisses != 1 {
		t.Fatalf("Sub = %+v", d)
	}
	s := d.Add(b)
	if s != a {
		t.Fatalf("Add(Sub) = %+v, want %+v", s, a)
	}
	if a.Accesses() != 15 {
		t.Fatalf("Accesses = %d, want 15", a.Accesses())
	}
}

func TestDiskModelTime(t *testing.T) {
	m := DiskModel{
		RandomLatency:     10 * time.Millisecond,
		NearLatency:       3 * time.Millisecond,
		SequentialLatency: 1 * time.Millisecond,
	}
	s := AccessStats{RandMisses: 3, NearMisses: 2, SeqMisses: 5}
	want := 3*10*time.Millisecond + 2*3*time.Millisecond + 5*time.Millisecond
	if got := m.Time(s); got != want {
		t.Fatalf("Time = %v, want %v", got, want)
	}
	def := DefaultDiskModel()
	if def.RandomLatency <= def.NearLatency || def.NearLatency <= def.SequentialLatency {
		t.Fatal("default model must order random > near > sequential")
	}
}

func TestBufferPoolPutAccounting(t *testing.T) {
	pool := NewBufferPool(filledPager(t, 64, 1), 2)
	id := PageID(0)
	if _, err := pool.Get(id); err != nil {
		t.Fatal(err)
	}
	if err := pool.Put(id); err != nil {
		t.Fatalf("balanced Put: %v", err)
	}
	// A second Put of the now-unpinned page is a pin-balance bug.
	if err := pool.Put(id); err == nil {
		t.Fatal("Put of unpinned page returned nil")
	}
	// A Put of a page that was never fetched is likewise an error.
	if err := pool.Put(PageID(999)); err == nil {
		t.Fatal("Put of non-resident page returned nil")
	}
}

func TestBufferPoolFailedReadNotCounted(t *testing.T) {
	mem := NewMemPager(64)
	for i := 0; i < 3; i++ {
		if _, err := mem.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	faulty := NewFaultyPager(mem, 0)
	pool := NewBufferPool(faulty, 2)
	if _, err := pool.Get(0); err != nil {
		t.Fatal(err)
	}
	if err := pool.Put(0); err != nil {
		t.Fatal(err)
	}
	base := pool.Stats()

	// Arm the fault: the next pager read fails. The failed fetch must not
	// count as a miss nor advance the sequentiality tracker.
	faulty.FailAt = faulty.Ops() + 1
	if _, err := pool.Get(2); err == nil {
		t.Fatal("expected read fault")
	}
	if got := pool.Stats(); got != base {
		t.Fatalf("stats changed across failed read: %v -> %v", base, got)
	}

	// After the device recovers, reading page 1 is sequential relative to
	// the last *successful* miss (page 0), proving the failed probe of
	// page 2 did not advance lastMiss.
	faulty.Reset()
	if _, err := pool.Get(1); err != nil {
		t.Fatal(err)
	}
	if err := pool.Put(1); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats().Sub(base)
	if st.Misses != 1 || st.SeqMisses != 1 {
		t.Fatalf("post-recovery delta %v, want 1 sequential miss", st)
	}
}

func TestBufferPoolFrameRecycling(t *testing.T) {
	mem := NewMemPager(4096)
	const pages = 16
	for i := 0; i < pages; i++ {
		if _, err := mem.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewBufferPool(mem, 2)
	// Warm up: fill the pool and force the free-list to grow via
	// evictions.
	for i := PageID(0); i < pages; i++ {
		if _, err := pool.Get(i); err != nil {
			t.Fatal(err)
		}
		if err := pool.Put(i); err != nil {
			t.Fatal(err)
		}
	}
	// Steady-state miss traffic must not allocate page buffers: every
	// miss recycles an evicted frame.
	next := PageID(0)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := pool.Get(next); err != nil {
			t.Fatal(err)
		}
		if err := pool.Put(next); err != nil {
			t.Fatal(err)
		}
		next = (next + 1) % pages
	})
	if allocs != 0 {
		t.Fatalf("steady-state misses allocated %.1f times per run", allocs)
	}
}

func TestBufferPoolDropAllRecyclesFrames(t *testing.T) {
	mem := NewMemPager(1024)
	for i := 0; i < 4; i++ {
		if _, err := mem.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewBufferPool(mem, 4)
	for i := PageID(0); i < 4; i++ {
		if _, err := pool.Get(i); err != nil {
			t.Fatal(err)
		}
		if err := pool.Put(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	// Re-reading after DropAll reuses the dropped frames.
	allocs := testing.AllocsPerRun(1, func() {
		for i := PageID(0); i < 4; i++ {
			if _, err := pool.Get(i); err != nil {
				t.Fatal(err)
			}
			if err := pool.Put(i); err != nil {
				t.Fatal(err)
			}
		}
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
	})
	// The frame table and the page buffers are all reused.
	if allocs != 0 {
		t.Fatalf("post-DropAll reads allocated %.1f times per run", allocs)
	}
}

// TestBufferPoolFrameTableEdges pins the page-id-indexed frame table at
// its edges: an id outside the pager is the pager's error on Get and an
// accounting error on Put, never a panic; a failed read neither counts
// a miss nor grows the table; and DropAll still refuses while a page is
// pinned.
func TestBufferPoolFrameTableEdges(t *testing.T) {
	const pages = 4
	faulty := NewFaultyPager(filledPager(t, 64, pages), 0)
	pool := NewBufferPool(faulty, 2)
	for _, id := range []PageID{-1, pages} {
		if _, err := pool.Get(id); !errors.Is(err, ErrPageOutOfRange) {
			t.Fatalf("Get(%d) = %v, want ErrPageOutOfRange", id, err)
		}
	}
	if len(pool.frames) != 0 || pool.resident != 0 || pool.Stats() != (AccessStats{}) {
		t.Fatalf("out-of-range Gets left %d table slots, %d resident, %v", len(pool.frames), pool.resident, pool.Stats())
	}
	for _, id := range []PageID{-1, 1 << 40} {
		if err := pool.Put(id); err == nil {
			t.Fatalf("Put(%d) returned nil", id)
		}
	}

	faulty.FailAt = faulty.Ops() + 1
	if _, err := pool.Get(pages - 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("Get over a failing pager = %v, want ErrInjected", err)
	}
	if len(pool.frames) != 0 || pool.resident != 0 || pool.Stats() != (AccessStats{}) {
		t.Fatalf("a failed read left %d table slots, %d resident, %v", len(pool.frames), pool.resident, pool.Stats())
	}
	faulty.Reset()
	if _, err := pool.Get(pages - 1); err != nil {
		t.Fatal(err)
	}
	if len(pool.frames) != pages || pool.resident != 1 || pool.Stats().Misses != 1 {
		t.Fatalf("a read of page %d left %d table slots, %d resident, %v", pages-1, len(pool.frames), pool.resident, pool.Stats())
	}
	if err := pool.DropAll(); err == nil {
		t.Fatal("DropAll with a pinned page succeeded")
	}
	if err := pool.Put(pages - 1); err != nil {
		t.Fatal(err)
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	if pool.resident != 0 || pool.lookup(pages-1) != nil {
		t.Fatalf("DropAll left %d resident", pool.resident)
	}
}

// TestBufferPoolStamps pins what a stamp promises: every pager read gets
// one, never 0 and never one another read of any pool has had — two
// pools over one pager included — while a hit leaves the frame's stamp
// as it is, and a page re-read after eviction or DropAll gets a new one.
// A pool whose read count would wrap takes a new pool number.
func TestBufferPoolStamps(t *testing.T) {
	pager := filledPager(t, 64, 4)
	a, b := NewBufferPool(pager, 2), NewBufferPool(pager, 2)
	seen := map[uint64]string{}
	read := func(pool *BufferPool, name string, id PageID) uint64 {
		t.Helper()
		if _, err := pool.Get(id); err != nil {
			t.Fatal(err)
		}
		s := pool.Stamp(id)
		if err := pool.Put(id); err != nil {
			t.Fatal(err)
		}
		return s
	}
	fresh := func(s uint64, what string) {
		t.Helper()
		if s == 0 {
			t.Fatalf("%s: stamp 0", what)
		}
		if prev, ok := seen[s]; ok {
			t.Fatalf("%s: stamp %#x already given to %s", what, s, prev)
		}
		seen[s] = what
	}

	if s := a.Stamp(0); s != 0 {
		t.Fatalf("a page never read has stamp %#x, want 0", s)
	}
	a0, b0 := read(a, "a", 0), read(b, "b", 0)
	fresh(a0, "a's read of page 0")
	fresh(b0, "b's read of page 0")
	if s := read(a, "a", 0); s != a0 || a.Stats().Hits != 1 {
		t.Fatalf("a hit changed page 0's stamp %#x to %#x (%v)", a0, s, a.Stats())
	}
	fresh(read(a, "a", 1), "a's read of page 1")
	fresh(read(a, "a", 2), "a's read of page 2, evicting page 0")
	if s := a.Stamp(0); s != 0 {
		t.Fatalf("an evicted page has stamp %#x, want 0", s)
	}
	fresh(read(a, "a", 0), "a's re-read of page 0 after its eviction")
	if err := b.DropAll(); err != nil {
		t.Fatal(err)
	}
	fresh(read(b, "b", 0), "b's re-read of page 0 after DropAll")

	a.reads = math.MaxUint32
	num := a.num
	fresh(read(a, "a", 3), "a's read past its read count's wrap")
	if a.num == num {
		t.Fatalf("a kept pool number %d past its read count's wrap", num)
	}
}
