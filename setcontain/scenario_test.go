// Named scenarios: fixed op scripts replayed on FuzzModel's harness and
// held to the same model through the same entry points. Each pins a
// case a random sequence reaches only by chance — a pending record
// deleted before its merge, a shard insert that fails, a crash at every
// filesystem operation of a script, a limit at every position.
package setcontain_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/setcontain"
)

// The targets New builds, by Kind.String(); the updatable ones first.
var (
	updatableKinds = []string{"OIF", "IF", "Sharded"}
	allKinds       = []string{"OIF", "IF", "Sharded", "UBT"}
)

func ask(expr string) modelOp {
	e, err := setcontain.ParseExpr(expr)
	if err != nil {
		panic(err)
	}
	return modelOp{kind: opQuery, expr: e}
}

func askLimit(expr string, limit int) modelOp {
	op := ask(expr)
	op.limit = limit
	return op
}

func insertOp(items ...setcontain.Item) modelOp { return modelOp{kind: opInsert, set: items} }

func deleteOp(victim, pick int) modelOp { return modelOp{kind: opDelete, victim: victim, pick: pick} }

var mergeOp, saveOp, crashOp = modelOp{kind: opMerge}, modelOp{kind: opSave}, modelOp{kind: opCrash}

// drawQueries draws n query ops of a shape from seed.
func drawQueries(seed int64, n, shape int) []modelOp {
	rng := rand.New(rand.NewSource(seed))
	z := dataset.NewZipf(modelDomain, 0.9)
	ops := make([]modelOp, n)
	for i := range ops {
		ops[i] = randQuery(rng, z, shape)
	}
	return ops
}

// drawMutations draws n inserts and deletes of live or pending ids
// from seed.
func drawMutations(seed int64, n int) []modelOp {
	rng := rand.New(rand.NewSource(seed))
	z := dataset.NewZipf(modelDomain, 0.9)
	ops := make([]modelOp, n)
	for i := range ops {
		ops[i] = insertOp(z.SampleDistinct(rng, 1+rng.Intn(5))...)
		if rng.Intn(3) == 0 {
			ops[i] = deleteOp(rng.Intn(2), rng.Intn(1000))
		}
	}
	return ops
}

// play replays ops on the named targets of seed's harness and fails t
// at the first disagreement with the model. The harness stays up until
// the test ends.
func play(t *testing.T, seed int64, targets []string, ops ...modelOp) *harness {
	t.Helper()
	h := newHarness(t, seed, targets...)
	t.Cleanup(h.close)
	if len(h.targets) != len(targets) {
		t.Fatalf("harness has %d of the targets %v", len(h.targets), targets)
	}
	if f := h.run(numbered(ops)); f != nil {
		t.Fatalf("seed=%d %v", seed, f)
	}
	return h
}

func numbered(ops []modelOp) []modelOp {
	for i := range ops {
		ops[i].at = i
	}
	return ops
}

// TestAllKindsAgree: every kind answers the three predicates as the
// model does, and refuses an item outside the domain with
// dataset.ErrItemOutOfDomain.
func TestAllKindsAgree(t *testing.T) {
	ops := drawQueries(72, 60, plainShape)
	for _, pred := range []string{"subset", "equality", "superset"} {
		ops = append(ops, ask(fmt.Sprintf("%s{1 %d}", pred, modelDomain)))
	}
	play(t, 3, allKinds, ops...)
}

// TestInsertAndMergeAcrossKinds: an insert takes the next id, is
// pending and visible before the merge and merged after it; the UBT
// ablation refuses both with ErrNoUpdates.
func TestInsertAndMergeAcrossKinds(t *testing.T) {
	play(t, 3, allKinds, insertOp(1, 3, 9), ask("equality{1 3 9}"), mergeOp, ask("equality{1 3 9}"))
}

// TestSaveLoadPublicAPI: an OIF and an inverted file come back from
// Save→Open as the same kind with the same answers; junk does not open.
func TestSaveLoadPublicAPI(t *testing.T) {
	play(t, 3, []string{"OIF", "IF"}, saveOp, ask("subset{1 7}"), ask("superset{1 7}"))
	if _, err := setcontain.Open(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("junk snapshot accepted")
	}
}

// TestDeleteMasksImmediately: deleted ids vanish from every answer
// before any merge — the empty-query forms that list every record
// included — and stay tombstoned after it.
func TestDeleteMasksImmediately(t *testing.T) {
	wide := []modelOp{ask("subset{}"), ask("superset{}"), ask("equality{}")}
	for _, kind := range updatableKinds {
		t.Run(kind, func(t *testing.T) {
			play(t, 2, []string{kind}, slices.Concat(
				[]modelOp{deleteOp(victimLive, 0), deleteOp(victimLive, 40), deleteOp(victimLive, 999)},
				wide, drawQueries(102, 20, anyShape), []modelOp{mergeOp}, wide, drawQueries(103, 20, anyShape))...)
		})
	}
}

// TestDeleteDeltaRecordAndNoIDReuse: deleting a pending insert masks it
// at once, the merge drops it, and its id is never handed out again.
func TestDeleteDeltaRecordAndNoIDReuse(t *testing.T) {
	for _, kind := range updatableKinds {
		t.Run(kind, func(t *testing.T) {
			play(t, 4, []string{kind}, insertOp(3, 4, 5), deleteOp(victimPending, 0), ask("equality{3 4 5}"),
				insertOp(6, 7), mergeOp, ask("equality{3 4 5}"), ask("equality{6 7}"))
		})
	}
}

// TestDeleteValidation: id 0, an id past the last and a double delete
// fail; an item outside the domain is refused on insert and on query;
// the UBT ablation refuses every update with ErrNoUpdates.
// TestCollectionBasics refuses it on Collection.Add.
func TestDeleteValidation(t *testing.T) {
	alien := fmt.Sprintf("{1 %d}", modelDomain)
	play(t, 5, allKinds, insertOp(1, modelDomain), ask("subset"+alien), ask("superset"+alien),
		deleteOp(victimUnknown, 0), deleteOp(victimUnknown, 3), // id 0, and the id after the last
		deleteOp(victimLive, 5), deleteOp(victimDead, 0))
}

// TestDurableRecoveryProperty crashes a Durable at every filesystem
// operation of a script of inserts, deletes, merges and checkpoints —
// mid-append, mid-checkpoint, mid-truncation — and recovers it: only
// what it acknowledged may survive, and the script goes on.
func TestDurableRecoveryProperty(t *testing.T) {
	script := drawMutations(8, 24)
	for i := 6; i < len(script); i += 7 {
		script[i-1], script[i] = mergeOp, saveOp
	}
	for _, tc := range []struct {
		name string
		seed int64 // the Durable's kind is seed's modulo 3
	}{{"OIF", 6}, {"IF", 4}, {"Sharded", 11}} {
		t.Run(tc.name, func(t *testing.T) {
			// A dry run counts the script's filesystem operations.
			h := newHarness(t, tc.seed, "durable")
			fs := h.target("durable").fs
			boot := fs.Ops()
			f := h.run(numbered(slices.Concat(script, drawQueries(9, 8, plainShape))))
			total := fs.Ops() - boot
			h.close()
			if f != nil {
				t.Fatalf("seed=%d no fault: %v", tc.seed, f)
			} else if total < 20 {
				t.Fatalf("script exercised only %d filesystem operations", total)
			}
			step := int64(1)
			if testing.Short() {
				step = 7
			}
			for skip := int64(0); skip < total; skip += step {
				failAt := modelOp{kind: opFailFS, fault: shardFault{skip: int(skip)}}
				h := newHarness(t, tc.seed, "durable")
				f := h.run(numbered(slices.Concat([]modelOp{failAt}, script, []modelOp{crashOp})))
				h.close()
				if f != nil {
					t.Fatalf("seed=%d filesystem op %d of %d fails: %v", tc.seed, skip+1, total, f)
				}
			}
		})
	}
}

// TestSnapshotRoundTripProperty: Save→Open restores the kind, the
// counts, the pending delta and the tombstones; the restored index
// merges, takes inserts and snapshots again with the model's answers.
func TestSnapshotRoundTripProperty(t *testing.T) {
	for _, tc := range []struct {
		name, target string
		seed         int64 // the sharded target has 1+seed&7 shards
	}{{"OIF", "OIF", 1}, {"IF", "IF", 1}, {"Sharded3", "Sharded", 2}, {"Sharded5", "Sharded", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			queries := drawQueries(91, 12, anyShape)
			play(t, tc.seed, []string{tc.target}, slices.Concat(
				drawMutations(92, 20), []modelOp{saveOp}, queries, []modelOp{mergeOp}, queries,
				[]modelOp{insertOp(2, 4), saveOp}, queries)...)
		})
	}
}

// TestSnapshotSurvivesStore serves a restored sharded index through a
// fresh Store, the way setcontaind -snapshot serves it.
func TestSnapshotSurvivesStore(t *testing.T) {
	play(t, 2, []string{"Sharded"}, append([]modelOp{saveOp}, drawQueries(96, 30, anyShape)...)...)
}

// TestShardedMatchesSingleShard: a sharded index at any shard count
// answers as the model does — ids and order.
func TestShardedMatchesSingleShard(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			play(t, int64(shards-1), []string{"Sharded"}, drawQueries(12, 40, anyShape)...)
		})
	}
}

// TestShardedInsertAndMerge: global ids stay dense across inserts that
// land on three shards, before and after the merge.
func TestShardedInsertAndMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	z := dataset.NewZipf(modelDomain, 0.8)
	var ops []modelOp
	for i := 0; i < 25; i++ {
		ops = append(ops, insertOp(z.SampleDistinct(rng, 1+rng.Intn(5))...))
	}
	queries := drawQueries(43, 20, anyShape)
	play(t, 2, []string{"Sharded"}, slices.Concat(ops, queries, []modelOp{mergeOp}, queries)...)
}

// TestShardedInsertFailureKeepsRouting: a failed shard insert must not
// advance the round-robin counter, or every later record lands on the
// wrong shard and the global id ↔ shard mapping drifts.
func TestShardedInsertFailureKeepsRouting(t *testing.T) {
	failing := []modelOp{{kind: opFault, fault: shardFault{call: "Insert", shard: -1, fail: true}}, insertOp(4, 5)}
	h := play(t, 2, []string{"Sharded"}, slices.Concat(
		[]modelOp{insertOp(1, 2), insertOp(2, 3)}, failing, failing, failing,
		[]modelOp{insertOp(4, 5), insertOp(5, 6), insertOp(6, 7)}, drawQueries(71, 30, plainShape))...)
	if fired := h.targets[0].board.firedCount(); fired != 3 {
		t.Fatalf("%d injected insert failures fired, want 3", fired)
	}
}

// TestQueryEvalMatchesMethods: Query.Eval answers as Index.Subset and the
// other entry points do. TestErrUnknownPredicateUnified holds its
// refusal of an unknown predicate.
func TestQueryEvalMatchesMethods(t *testing.T) {
	play(t, 1, []string{"OIF"}, append([]modelOp{ask("subset{1 5}")}, drawQueries(77, 20, plainShape)...)...)
}

// TestExecAppendMatchesExec: Store.ExecAppend answers as Store.Exec
// and leaves dst's prefix alone (the entry point checks it).
func TestExecAppendMatchesExec(t *testing.T) {
	play(t, 1, []string{"OIF", "IF"}, drawQueries(149, 30, plainShape)...)
}

// TestStoreExecBatch: one batch of forty queries answers each in order,
// on every kind.
func TestStoreExecBatch(t *testing.T) {
	ops := drawQueries(82, 40, plainShape)
	for _, kind := range []string{"IF", "OIF", "Sharded", "UBT"} {
		t.Run(kind, func(t *testing.T) {
			tg := play(t, 2, []string{kind}, ops...).targets[0]
			qs := make([]setcontain.Query, len(ops))
			for i := range ops {
				qs[i] = leafOf(&ops[i])
			}
			got, err := tg.store.ExecBatch(context.Background(), qs)
			if err != nil || len(got) != len(qs) {
				t.Fatalf("ExecBatch: %d answers for %d queries, %v", len(got), len(qs), err)
			}
			for i := range ops {
				if want, _ := tg.m.answer(&ops[i]); !slices.Equal(got[i], want) {
					t.Errorf("%s: got %v, want %v", qs[i], got[i], want)
				}
			}
		})
	}
}

// TestExprPlannedMatchesNaive: planned expressions answer as the model
// does on every kind, with inserts pending and tombstones set, and each
// of their leaves counts as evaluated or skipped (the Store entry point
// checks ExprStats).
func TestExprPlannedMatchesNaive(t *testing.T) {
	play(t, 1, allKinds, append(drawMutations(1234, 30), drawQueries(1235, 60, treeShape)...)...)
}

// TestExprLimitFirstN: a limited evaluation answers exactly the first n
// ids of the unlimited answer — inside, at and past its end — on every
// kind, with inserts pending and tombstones set.
func TestExprLimitFirstN(t *testing.T) {
	ops := drawMutations(9876, 20)
	for _, q := range drawQueries(9877, 12, treeShape) {
		for _, n := range []int{0, 1, 2, 7, modelRecords, modelRecords * 2} {
			ops = append(ops, modelOp{kind: opQuery, expr: q.expr, limit: n})
		}
	}
	play(t, 1, allKinds, ops...)
}

// TestStoreExecExpr: a planned expression answers as the model does and
// counts once in ExprStats, a one-leaf expression routes like Exec and
// does not count, and an ended context is refused.
func TestStoreExecExpr(t *testing.T) {
	e := "subset{1 2} and not superset{0 1 2 3 4 5 6 7 8 9} or equality{3}"
	canceled := ask(e)
	canceled.ended = context.Canceled
	play(t, 2, updatableKinds, ask(e), ask("subset{1 2}"), canceled)
}

// TestStoreExecExprLimit: a wide answer cut at every position, limit 0
// for all of it, and a negative limit refused with ErrNegativeLimit on
// a tree and on one leaf alike.
func TestStoreExecExprLimit(t *testing.T) {
	e := "subset{1} or subset{2 3} or equality{4} or not superset{0 1 2 3 4 5 6 7 8 9}"
	var ops []modelOp
	for _, n := range []int{0, 1, 5, modelRecords, modelRecords + 9, -1} {
		ops = append(ops, askLimit(e, n))
	}
	play(t, 2, allKinds, append(ops, askLimit("subset{1}", -1))...)
}

// TestTransportEquivalence: every stack — single engines, the sharded
// engine, coordinators over in-process clients and over daemons, and a
// Durable — answers queries, expressions and limited expressions
// through every entry point as the model does, with inserts pending and
// deletes set, after the merge, and under ended contexts.
func TestTransportEquivalence(t *testing.T) {
	queries := drawQueries(7, 30, anyShape)
	play(t, 2, []string{"OIF", "Sharded", "inproc", "http", "durable"}, slices.Concat(
		queries, drawMutations(8, 20), queries, []modelOp{mergeOp}, queries)...)
}

// TestMalformedLeafRefused: a leaf that carries a child is a tree, which
// every entry point refuses — on one engine and on a coordinator alike —
// before any shard is asked.
func TestMalformedLeafRefused(t *testing.T) {
	h := newHarness(t, 2, "OIF", "Sharded", "http")
	defer h.close()
	ctx := context.Background()
	q := setcontain.SubsetQuery([]setcontain.Item{1})
	bad := &setcontain.Expr{Op: setcontain.OpLeaf, Leaf: q, Kids: []*setcontain.Expr{setcontain.ExprOf(q)}}
	for _, tg := range h.targets {
		entries := []struct {
			name string
			call func() ([]uint32, error)
		}{
			{"Expr.Eval", func() ([]uint32, error) { return bad.Eval(tg.idx) }},
			{"Index.EvalExprLimit", func() ([]uint32, error) { return tg.idx.EvalExprLimit(bad, 0) }},
			{"Store.ExecExprAppend", func() ([]uint32, error) { return tg.store.ExecExprAppend(ctx, nil, bad) }},
			{"Batcher.DoExprLimit", func() ([]uint32, error) { return tg.srv.Batcher().DoExprLimit(ctx, nil, bad, 0) }},
		}
		tg.board.tally()
		for _, e := range entries {
			if ids, err := e.call(); err == nil || !strings.Contains(err.Error(), "leaf with 1 children") {
				t.Errorf("%s: %s answered a leaf with a child: %v, %v", tg.name, e.name, ids, err)
			}
		}
		for call, n := range tg.board.tally() {
			if call != "Session" {
				t.Errorf("%s: the refused leaf reached the shards: %d %s calls", tg.name, n, call)
			}
		}
	}
}
