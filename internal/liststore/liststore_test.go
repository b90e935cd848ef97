package liststore

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

func newStore(t *testing.T, pageSize, poolPages, domain int) *Store {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemPager(pageSize), poolPages)
	s, err := New(pool, domain)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := newStore(t, 128, 16, 5)
	w, err := s.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	lists := map[uint32][]byte{
		0: bytes.Repeat([]byte{0xAA}, 300), // multi-page
		1: []byte("short"),
		2: nil,                             // empty
		3: bytes.Repeat([]byte{0xBB}, 128), // exactly one page
	}
	for item, data := range lists {
		if err := w.WriteList(item, data); err != nil {
			t.Fatalf("WriteList(%d): %v", item, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for item, want := range lists {
		got, err := s.ReadList(item)
		if err != nil {
			t.Fatalf("ReadList(%d): %v", item, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("ReadList(%d) = %d bytes, want %d", item, len(got), len(want))
		}
	}
	// Item 4 was never written: empty extent.
	got, err := s.ReadList(4)
	if err != nil || got != nil {
		t.Errorf("unwritten list = %v, %v", got, err)
	}
}

func TestReadBeforeSeal(t *testing.T) {
	s := newStore(t, 128, 16, 2)
	if _, err := s.NewWriter(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadList(0); err != ErrNotSealed {
		t.Fatalf("ReadList before seal: %v, want ErrNotSealed", err)
	}
}

func TestDuplicateListRejected(t *testing.T) {
	s := newStore(t, 128, 16, 2)
	w, err := s.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteList(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteList(0, []byte("y")); err == nil {
		t.Fatal("duplicate WriteList succeeded")
	}
	if err := w.WriteList(7, []byte("x")); err == nil {
		t.Fatal("out-of-domain WriteList succeeded")
	}
}

func TestSequentialAccessPattern(t *testing.T) {
	// Reading one long list must cost 1 random + (pages-1) sequential
	// misses on a cold pool — the IF cost profile.
	pageSize := 128
	s := newStore(t, pageSize, 4, 2)
	w, err := s.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{1}, pageSize*10)
	if err := w.WriteList(0, data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(s.Pool().Pager(), 4)
	if err := s.SetPool(pool); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadList(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("list corrupted")
	}
	st := pool.Stats()
	if st.Misses != 10 {
		t.Fatalf("misses = %d, want 10", st.Misses)
	}
	if st.RandMisses != 1 || st.SeqMisses != 9 {
		t.Fatalf("stats %v, want 1 random + 9 sequential", st)
	}
}

func TestExtentAccounting(t *testing.T) {
	s := newStore(t, 100, 16, 3)
	w, err := s.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteList(0, make([]byte, 250)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteList(1, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalBytes(); got != 350 {
		t.Fatalf("TotalBytes = %d, want 350", got)
	}
	// Lists are packed: 350 bytes over 100-byte pages = 4 pages.
	if got := s.TotalPages(); got != 4 {
		t.Fatalf("TotalPages = %d, want 4", got)
	}
	ext0, err := s.Extent(0)
	if err != nil {
		t.Fatal(err)
	}
	if ext0.Pages(100) != 3 {
		t.Fatalf("extent 0 spans %d pages, want 3", ext0.Pages(100))
	}
	// List 1 (100 bytes) starts mid-page after list 0's 250 bytes: it
	// begins at page 2 offset 50 and spans two pages.
	ext1, err := s.Extent(1)
	if err != nil {
		t.Fatal(err)
	}
	if ext1.StartPage != 2 || ext1.StartByte != 50 {
		t.Fatalf("extent 1 = %+v, want start page 2 offset 50", ext1)
	}
	if ext1.Pages(100) != 2 {
		t.Fatalf("extent 1 spans %d pages, want 2", ext1.Pages(100))
	}
}

func TestManyListsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const domain = 200
	s := newStore(t, 64, 256, domain)
	w, err := s.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, domain)
	for item := 0; item < domain; item++ {
		n := rng.Intn(500)
		data := make([]byte, n)
		rng.Read(data)
		want[item] = data
		if err := w.WriteList(uint32(item), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Random-order reads through a tiny pool.
	small := storage.NewBufferPool(s.Pool().Pager(), 4)
	if err := s.SetPool(small); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		item := uint32(rng.Intn(domain))
		got, err := s.ReadList(item)
		if err != nil {
			t.Fatal(err)
		}
		w := want[item]
		if len(w) == 0 {
			if got != nil {
				t.Fatalf("item %d: got %d bytes, want empty", item, len(got))
			}
			continue
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("item %d corrupted", item)
		}
	}
}
