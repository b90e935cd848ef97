package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// replayKey is group | tag | id, the OIF's key shape: the tag grows with
// the id, so within a group tag order and id order coincide.
func replayKey(g, id uint32) []byte {
	k := binary.BigEndian.AppendUint32(nil, g)
	k = fmt.Appendf(k, "t%06d", id)
	return binary.BigEndian.AppendUint32(k, id)
}

// groupIDProbe is the probe compareGroupID takes: group | id.
func groupIDProbe(g, id uint32) []byte {
	return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, g), id)
}

// compareGroupID orders a group | id probe against a replayKey by
// (group, id>>shift), ignoring the tag. shift 0 is idProbeCompare's
// order; a larger shift makes runs of keys tie with one probe, runs that
// straddle leaves.
func compareGroupID(shift uint) Compare {
	return func(probe, key []byte) int {
		if c := bytes.Compare(probe[:4], key[:4]); c != 0 {
			return c
		}
		p, k := binary.BigEndian.Uint32(probe[4:])>>shift, binary.BigEndian.Uint32(key[len(key)-4:])>>shift
		switch {
		case p < k:
			return -1
		case p > k:
			return 1
		}
		return 0
	}
}

// TestSeekCursorReplayMatchesDescent holds the replay to the descent it
// stands in for. Twin small pools read one tree: pool A serves one
// reused cursor, which replays whenever a probe falls inside the held
// leaf's separator bounds; pool B serves a fresh cursor per seek, which
// always descends. Probes land on a leaf's first and last keys, just
// before the first and just past the last, near the previous probe, and
// after a Next that crossed a leaf, under the bytewise order, an
// id-directed order that ignores the tag, and one under which runs of
// keys tie. At every step the two cursors must rest on the same entry,
// and the pools must agree on every AccessStats field and on how many
// times their interrupt hook was consulted: the replay requests exactly
// the descent's pages.
func TestSeekCursorReplayMatchesDescent(t *testing.T) {
	const groups, perGroup = 4, 900
	var keys, vals [][]byte
	for g := uint32(0); g < groups; g++ {
		for i := uint32(0); i < perGroup; i++ {
			keys = append(keys, replayKey(g, 3*i+1)) // ids leave gaps to probe
			vals = append(vals, fmt.Appendf(nil, "v%d.%d", g, i))
		}
	}
	tree := bulkFromPairs(t, 256, 8, keys, vals)
	if h, err := tree.Height(); err != nil || h < 3 {
		t.Fatalf("height %d, %v: want a tree of three levels or more", h, err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}

	// The leaves' first and last entries, read off a scan.
	type bounds struct{ first, last int }
	var leaves []bounds
	scan, err := tree.First()
	if err != nil {
		t.Fatal(err)
	}
	for e, leaf := 0, storage.InvalidPageID; scan.Valid(); e++ {
		if scan.leaf.id != leaf {
			leaves = append(leaves, bounds{e, e})
			leaf = scan.leaf.id
		}
		leaves[len(leaves)-1].last = e
		if err := scan.Next(); err != nil {
			t.Fatal(err)
		}
	}

	pager := tree.Pool().Pager()
	poolA, poolB := storage.NewBufferPool(pager, 4), storage.NewBufferPool(pager, 4)
	treeA, err := tree.View(poolA)
	if err != nil {
		t.Fatal(err)
	}
	treeB, err := tree.View(poolB)
	if err != nil {
		t.Fatal(err)
	}
	var hooksA, hooksB int
	poolA.SetInterrupt(func() error { hooksA++; return nil })
	poolB.SetInterrupt(func() error { hooksB++; return nil })

	var a Cursor
	b := &Cursor{}
	check := func(step int, what string) {
		t.Helper()
		if a.Valid() != b.Valid() || (a.Valid() && (!bytes.Equal(a.Key(), b.Key()) || !bytes.Equal(a.Value(), b.Value()))) {
			t.Fatalf("step %d (%s): reused cursor at (%v %x), fresh cursor at (%v %x)", step, what, a.Valid(), a.Key(), b.Valid(), b.Key())
		}
		if sa, sb := poolA.Stats(), poolB.Stats(); sa != sb || hooksA != hooksB {
			t.Fatalf("step %d (%s): pool A %v with %d hook calls, pool B %v with %d", step, what, sa, hooksA, sb, hooksB)
		}
	}

	rng := rand.New(rand.NewSource(31))
	entry := func(e int) (g, id uint32) { return uint32(e / perGroup), 3*uint32(e%perGroup) + 1 }
	g, id := entry(0)
	replays := 0
	for step := 0; step < 20000; step++ {
		var what string
		switch k := rng.Intn(8); k {
		case 0, 1:
			l := leaves[rng.Intn(len(leaves))]
			e := l.first
			if k == 1 {
				e = l.last
			}
			g, id = entry(e)
			what = "a leaf's first or last key"
		case 2:
			g, id = entry(leaves[rng.Intn(len(leaves))].first)
			id--
			what = "just before a leaf's first key"
		case 3:
			g, id = entry(leaves[rng.Intn(len(leaves))].last)
			id++
			what = "just past a leaf's last key"
		case 4:
			// Walk both cursors across the next leaf boundary; the probe
			// that follows starts from the leaf reached by its link.
			if !a.Valid() {
				continue
			}
			for crossed := false; !crossed && a.Valid(); {
				leaf := a.leaf.id
				if err := a.Next(); err != nil {
					t.Fatal(err)
				}
				if err := b.Next(); err != nil {
					t.Fatal(err)
				}
				crossed = a.leaf.id != leaf
				check(step, "Next")
			}
			continue
		default:
			id = max(1, id+uint32(rng.Intn(13))-6)
			what = "near the previous probe"
		}
		var probe []byte
		var cmp Compare
		switch rng.Intn(3) {
		case 0:
			probe, cmp = replayKey(g, id), BytewiseCompare
		case 1:
			probe, cmp = groupIDProbe(g, id), compareGroupID(0)
		default:
			probe, cmp = groupIDProbe(g, id), compareGroupID(4)
		}
		if a.held && cmp(probe, a.leaf.key(0)) >= 0 && cmp(probe, a.leaf.key(a.leaf.numCells()-1)) <= 0 {
			replays++
		}
		if err := treeA.SeekCursor(&a, probe, cmp); err != nil {
			t.Fatal(err)
		}
		b = &Cursor{}
		if err := treeB.SeekCursor(b, probe, cmp); err != nil {
			t.Fatal(err)
		}
		check(step, what)
	}
	if replays < 2000 {
		t.Fatalf("only %d of 20000 probes fell inside the held leaf; the test exercises too few replays", replays)
	}
	for _, p := range []*storage.BufferPool{poolA, poolB} {
		if err := p.DropAll(); err != nil {
			t.Fatalf("a page is still pinned after the seeks: %v", err)
		}
	}
}
