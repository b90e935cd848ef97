// This file lives in the external test package so it can stand a
// serve.Server up over a Durable's index.
package setcontain_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/naive"
	"repro/internal/wal"
	"repro/setcontain"
	"repro/setcontain/serve"
)

// TestDurableLogsEveryMutationPath inserts and deletes through every
// public way into a Durable's index — the Index's own Insert and
// Delete, the Durable's Store, a second Store over the index, a
// serve.Server built without Config.Durable, and the Durable's own
// batches — then reopens the directory, after a Close and after a power
// cut, and holds every answer, NumRecords and Deleted to internal/naive
// over the acknowledged records. A path that skips the log loses its
// writes on reopen, or makes a logged insert's recorded id disagree with
// the id its replay assigns, and OpenDurable refuses the directory.
func TestDurableLogsEveryMutationPath(t *testing.T) {
	const domain = 20
	rng := rand.New(rand.NewSource(61))
	c := setcontain.NewCollection(domain)
	for i := 0; i < 50; i++ {
		c.Add([]setcontain.Item{setcontain.Item(rng.Intn(domain)), setcontain.Item(rng.Intn(domain))})
	}
	kinds := []struct {
		name string
		opts []setcontain.Option
	}{
		{"OIF", []setcontain.Option{setcontain.WithKind(setcontain.OIF)}},
		{"InvertedFile", []setcontain.Option{setcontain.WithKind(setcontain.InvertedFile)}},
		{"Sharded", []setcontain.Option{setcontain.WithKind(setcontain.Sharded), setcontain.WithShards(3)}},
	}
	for _, kind := range kinds {
		for _, cut := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/powercut=%v", kind.name, cut), func(t *testing.T) {
				idx, err := setcontain.New(c, append(kind.opts, setcontain.WithPageSize(512), setcontain.WithBlockPostings(8))...)
				if err != nil {
					t.Fatal(err)
				}
				mem := wal.NewMemFS()
				o := setcontain.DurableOptions{Sync: wal.SyncAlways, CheckpointBytes: -1, FS: mem}
				d, err := setcontain.NewDurable("w", idx, o)
				if err != nil {
					t.Fatal(err)
				}
				srv := serve.NewServer(d.Index(), d.Store(), serve.Config{})
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				defer srv.Close()

				m := dataset.New(domain)
				for id := uint32(1); int(id) <= c.Len(); id++ {
					set, _ := c.Record(id)
					m.Add(set)
				}
				dead := map[uint32]bool{}
				for round := 0; round < 3; round++ {
					for _, p := range durablePaths(d, ts.URL, ts.Client()) {
						for i := 0; i < 2; i++ {
							set := []setcontain.Item{setcontain.Item(rng.Intn(domain)), setcontain.Item(rng.Intn(domain))}
							id, err := p.insert(set)
							if err != nil {
								t.Fatalf("%s: insert: %v", p.name, err)
							}
							if want, _ := m.Add(set); id != want {
								t.Fatalf("%s: insert assigned id %d, want %d", p.name, id, want)
							}
						}
						victim := uint32(1 + rng.Intn(m.Len()))
						for dead[victim] {
							victim = victim%uint32(m.Len()) + 1
						}
						if err := p.del(victim); err != nil {
							t.Fatalf("%s: delete %d: %v", p.name, victim, err)
						}
						dead[victim] = true
					}
				}
				checkAgainstNaive(t, "before reopen", d.Index(), m, dead)

				if cut {
					mem.Crash() // the Durable is never closed: power is lost under it
				} else if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				back, err := setcontain.OpenDurable("w", o)
				if err != nil {
					t.Fatal(err)
				}
				defer back.Close()
				checkAgainstNaive(t, "after reopen", back.Index(), m, dead)
			})
		}
	}
}

// mutationPath is one public way to mutate an index, one record at a
// time.
type mutationPath struct {
	name   string
	insert func([]setcontain.Item) (uint32, error)
	del    func(uint32) error
	merge  func() error
}

// batchPath mutates through one-record batches of a Store or a Durable.
func batchPath(name string, s interface {
	InsertSets([][]setcontain.Item) ([]uint32, error)
	DeleteIDs([]uint32) error
	MergeDelta() error
}) mutationPath {
	return mutationPath{name,
		func(set []setcontain.Item) (uint32, error) {
			ids, err := s.InsertSets([][]setcontain.Item{set})
			if err != nil {
				return 0, err
			}
			return ids[0], nil
		},
		func(id uint32) error { return s.DeleteIDs([]uint32{id}) },
		s.MergeDelta,
	}
}

// durablePaths lists every public way to mutate d's index, the
// Durable's own batches first; url is a serve.Server's over the index,
// built without Config.Durable, and hc the client to post to it with.
func durablePaths(d *setcontain.Durable, url string, hc *http.Client) []mutationPath {
	idx := d.Index()
	// A coordinator's shard client posts to exactly the /admin routes.
	admin, ctx := setcontain.NewRemoteShard(url, hc), context.Background()
	return []mutationPath{
		batchPath("Durable", d),
		batchPath("Durable.Store", d.Store()),
		batchPath("NewStore", setcontain.NewStore(idx, 0)),
		{"Index", idx.Insert, idx.Delete, idx.MergeDelta},
		{"POST /admin",
			func(set []setcontain.Item) (uint32, error) { return admin.Insert(ctx, set) },
			func(id uint32) error { return admin.Delete(ctx, id) },
			func() error { return admin.MergeDelta(ctx) }},
	}
}

// checkAgainstNaive holds idx's record and tombstone counts, and its
// answers to every predicate over a spread of query sets, to
// internal/naive over m without the dead ids.
func checkAgainstNaive(t *testing.T, when string, idx *setcontain.Index, m *dataset.Dataset, dead map[uint32]bool) {
	t.Helper()
	if got, want := idx.NumRecords(), m.Len(); got != want {
		t.Fatalf("%s: NumRecords %d, want %d", when, got, want)
	}
	if got, want := idx.Deleted(), len(dead); got != want {
		t.Fatalf("%s: Deleted %d, want %d", when, got, want)
	}
	live := func(ids []uint32) []uint32 {
		return slices.DeleteFunc(ids, func(id uint32) bool { return dead[id] })
	}
	queries := [][]setcontain.Item{nil, {0}, {3}, {1, 2}, {5, 7, 11}}
	for it := setcontain.Item(0); it < 20; it += 2 {
		queries = append(queries, []setcontain.Item{it, it + 1})
	}
	for _, qs := range queries {
		for _, c := range []struct {
			pred  string
			got   func([]setcontain.Item) ([]uint32, error)
			naive func(*dataset.Dataset, []dataset.Item) []uint32
		}{
			{"subset", idx.Subset, naive.Subset},
			{"equality", idx.Equality, naive.Equality},
			{"superset", idx.Superset, naive.Superset},
		} {
			got, err := c.got(qs)
			if err != nil {
				t.Fatalf("%s: %s%v: %v", when, c.pred, qs, err)
			}
			if want := live(c.naive(m, qs)); !slices.Equal(got, want) {
				t.Fatalf("%s: %s%v = %v, want %v", when, c.pred, qs, got, want)
			}
		}
	}
}
