package setcontain

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStateReadsBesideMutation reads the Index's state — NumRecords,
// PendingInserts, Deleted, ShardPlans and a Save — on one goroutine
// while another mutates the Index directly (Insert, Delete, MergeDelta).
// Under -race a read outside the Index's lock is a data race. Every
// count must lie between the states the reads overlapped, and every
// snapshot must Open and answer the probe as internal/naive does after
// some op k, with k at least the ops acknowledged before the reads
// started and at most the ops begun before the Save returned.
func TestStateReadsBesideMutation(t *testing.T) {
	const domain, ops = 40, 36
	probe := Item(domain)
	rng := rand.New(rand.NewSource(59))
	base := probeBase(t, domain, rng)
	for _, tc := range deleteKinds {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := New(base, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			script, want := probeScript(t, base, probe, ops, rng)
			// records[k] is the record count after op k.
			records := make([]int, ops+1)
			records[0] = base.Len()
			for k := 1; k <= ops; k++ {
				records[k] = records[k-1]
				if script[k].set != nil {
					records[k]++
				}
			}
			shards := 0
			if tc.name == "Sharded" {
				shards = 3
			}
			var begun, acked, saved atomic.Int64
			done := make(chan struct{})
			var wg sync.WaitGroup
			defer func() {
				close(done)
				wg.Wait()
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				for {
					select {
					case <-done:
						return
					default:
					}
					lo := acked.Load()
					n := ix.NumRecords()
					ix.PendingInserts()
					ix.Deleted()
					plans := ix.ShardPlans()
					planned := 0
					for _, p := range plans {
						planned += p.Records
					}
					buf.Reset()
					err := ix.Save(&buf)
					hi := begun.Load()
					if err != nil {
						t.Error(err)
						return
					}
					if n < records[lo] || n > records[hi] {
						t.Errorf("NumRecords %d while ops %d to %d ran, which leave %d to %d records", n, lo, hi, records[lo], records[hi])
						return
					}
					if len(plans) != shards || shards > 0 && (planned < records[lo] || planned > records[hi]) {
						t.Errorf("%d shard plans over %d records while ops %d to %d ran, want %d plans over %d to %d",
							len(plans), planned, lo, hi, shards, records[lo], records[hi])
						return
					}
					restored, err := Open(&buf)
					if err != nil {
						t.Errorf("a snapshot taken while ops %d to %d ran does not open: %v", lo, hi, err)
						return
					}
					got, err := restored.Subset([]Item{probe})
					if err != nil {
						t.Error(err)
						return
					}
					if inWindow(got, want, lo, hi) < 0 {
						t.Errorf("a snapshot taken after op %d returned and before op %d began answers %v, which no op in between left", lo, hi+1, got)
						return
					}
					saved.Add(1)
				}
			}()
			m := indexMutator(ix)
			for k := 1; k <= ops; k++ {
				// Let a Save finish between any two ops.
				for n := saved.Load(); saved.Load() == n && !t.Failed(); {
					runtime.Gosched()
				}
				begun.Store(int64(k))
				m.apply(t, k, script[k])
				acked.Store(int64(k))
			}
		})
	}
}

// TestSaveLeavesCacheStats: Save reads the pages or lists through no
// pool of the Index's, so a warm Index's cache statistics are what they
// were before it.
func TestSaveLeavesCacheStats(t *testing.T) {
	c := sampleCollection(t)
	for _, tc := range deleteKinds {
		ix, err := New(c, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Subset([]Item{1, 2}); err != nil {
			t.Fatal(err)
		}
		before := ix.CacheStats()
		if err := ix.Save(io.Discard); err != nil {
			t.Fatal(err)
		}
		if after := ix.CacheStats(); after != before {
			t.Errorf("%s: Save moved CacheStats from %+v to %+v", tc.name, before, after)
		}
	}
}
