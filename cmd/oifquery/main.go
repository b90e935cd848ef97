// Command oifquery builds a containment index over a dataset file and
// answers interactive queries. OIF, inverted-file, and sharded indexes
// can be snapshotted to disk and reloaded, skipping the build.
//
// Usage:
//
//	setgen -kind msweb -out data.txt
//	oifquery -data data.txt -index sharded -save idx.snap
//	oifquery -load idx.snap
//
// Then, on stdin (items are decimal ids):
//
//	subset 3 17        records containing both items
//	equality 3 17 29   records whose set is exactly {3,17,29}
//	superset 3 17 29   records contained in {3,17,29}
//	subset{3} and not superset{17 29}
//	                   boolean expression (setcontain.ParseExpr grammar),
//	                   answered through the cost-based planner
//	limit 10 EXPR      first 10 ids of EXPR's answer
//	explain EXPR       print the planner's cost-ordered tree for EXPR
//	insert 3 17 29     add a record, print its id
//	delete 42          tombstone record 42
//	merge              fold pending inserts and tombstones to disk
//	digest             deterministic query sweep, print an answer hash
//	stats              cumulative page-access statistics
//	help, quit
//
// The digest command hashes the answers of a fixed query sweep, so two
// instances over the same logical collection — say, one built from the
// dataset and one restored from its snapshot — can be compared for
// byte-identical behaviour (make snapshot-smoke does exactly that).
package main

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/wal"
	"repro/setcontain"
)

func main() {
	var (
		dataPath = flag.String("data", "", "dataset file")
		format   = flag.String("format", "text", "dataset format: text, or msweb (UCI Anonymous Microsoft Web Data)")
		replicas = flag.Int("replicas", 1, "replicate the dataset this many times (the paper uses 10 for msweb)")
		kindName = flag.String("index", "oif", "index kind: oif, if, ubt, or sharded")
		shards   = flag.Int("shards", 0, "shard count for -index sharded (0 = one per CPU)")
		maxShow  = flag.Int("maxshow", 20, "maximum record ids to print per answer")
		savePath = flag.String("save", "", "write an index snapshot here after building")
		loadPath = flag.String("load", "", "load an index snapshot instead of building from -data")
	)
	flag.Parse()
	if *dataPath == "" && *loadPath == "" {
		fmt.Fprintln(os.Stderr, "oifquery: one of -data or -load is required")
		flag.Usage()
		os.Exit(2)
	}
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oifquery: %v\n", err)
			os.Exit(1)
		}
		start := time.Now()
		idx, err := setcontain.Open(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "oifquery: load: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("loaded %s snapshot (%d records) in %v; type 'help' for commands\n",
			idx.Kind(), idx.NumRecords(), time.Since(start).Round(time.Millisecond))
		repl(idx, *maxShow)
		return
	}
	kind, err := setcontain.ParseKind(*kindName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oifquery: %v\n", err)
		os.Exit(2)
	}

	coll, err := loadCollection(*dataPath, *format, *replicas)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oifquery: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("loaded %d records over %d items; building %s index...\n",
		coll.Len(), coll.DomainSize(), kind)
	start := time.Now()
	idx, err := setcontain.New(coll, setcontain.WithKind(kind), setcontain.WithShards(*shards))
	if err != nil {
		fmt.Fprintf(os.Stderr, "oifquery: build: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("built in %v; type 'help' for commands\n", time.Since(start).Round(time.Millisecond))
	if *savePath != "" {
		// Crash-atomic: the container lands under a temp name, is
		// fsynced, and renames into place — a crash mid-save can never
		// leave a torn snapshot where a good one (or nothing) was.
		err := wal.WriteFileAtomic(wal.OSFS{}, *savePath, func(w io.Writer) error {
			return idx.Save(w)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "oifquery: save: %v\n", err)
			os.Exit(1)
		}
		info, _ := os.Stat(*savePath)
		fmt.Printf("snapshot written to %s (%d bytes)\n", *savePath, info.Size())
	}
	repl(idx, *maxShow)
}

// repl runs the interactive loop.
func repl(idx *setcontain.Index, maxShow int) {
	sc := bufio.NewScanner(os.Stdin)
	for fmt.Print("> "); sc.Scan(); fmt.Print("> ") {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		cmd := strings.ToLower(fields[0])
		switch cmd {
		case "quit", "exit":
			return
		case "help":
			fmt.Println("commands: subset ITEMS..., equality ITEMS..., superset ITEMS...,")
			fmt.Println("          insert ITEMS..., delete ID, merge, digest, stats, quit")
			fmt.Println("expressions: subset{1 2} and not superset{3}  (and/or/not, parens)")
			fmt.Println("          limit N EXPR answers only the first N ids")
			fmt.Println("          explain EXPR prints the planner's cost-ordered tree")
		case "limit":
			if len(fields) < 3 {
				fmt.Println("usage: limit N EXPR")
				continue
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				fmt.Printf("bad limit %q (want a non-negative integer)\n", fields[1])
				continue
			}
			expr, err := setcontain.ParseExpr(strings.Join(fields[2:], " "))
			if err != nil {
				fmt.Println(err)
				continue
			}
			t0 := time.Now()
			ids, err := idx.EvalExprLimit(expr, n)
			if err != nil {
				fmt.Printf("%s: %v\n", expr, err)
				continue
			}
			show := ids
			if len(show) > maxShow {
				show = show[:maxShow]
			}
			fmt.Printf("%s limit %d: %d records in %v: %v", expr, n, len(ids), time.Since(t0).Round(time.Microsecond), show)
			if len(ids) > maxShow {
				fmt.Printf(" ... (+%d more)", len(ids)-maxShow)
			}
			fmt.Println()
		case "explain":
			expr, err := setcontain.ParseExpr(strings.Join(fields[1:], " "))
			if err != nil {
				fmt.Println(err)
				continue
			}
			plan, err := setcontain.PlanExpr(expr, idx.Supports())
			if err != nil {
				fmt.Printf("explain: %v\n", err)
				continue
			}
			fmt.Printf("%s\n(%d records, theta %.3f)\n%s\n", expr, plan.NumRecords, plan.Theta, plan)
		case "insert":
			items, err := parseItems(fields[1:])
			if err != nil {
				fmt.Println(err)
				continue
			}
			id, err := idx.Insert(items)
			if err != nil {
				fmt.Printf("insert: %v\n", err)
				continue
			}
			fmt.Printf("inserted record %d (%d pending)\n", id, idx.PendingInserts())
		case "delete":
			if len(fields) != 2 {
				fmt.Println("usage: delete ID")
				continue
			}
			id, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				fmt.Printf("bad id %q\n", fields[1])
				continue
			}
			if err := idx.Delete(uint32(id)); err != nil {
				fmt.Printf("delete: %v\n", err)
				continue
			}
			fmt.Printf("deleted record %d (%d tombstoned)\n", id, idx.Deleted())
		case "merge":
			t0 := time.Now()
			if err := idx.MergeDelta(); err != nil {
				fmt.Printf("merge: %v\n", err)
				continue
			}
			fmt.Printf("merged in %v (%d records, %d tombstoned)\n",
				time.Since(t0).Round(time.Microsecond), idx.NumRecords(), idx.Deleted())
		case "digest":
			d, err := answerDigest(idx)
			if err != nil {
				fmt.Printf("digest: %v\n", err)
				continue
			}
			fmt.Printf("digest: %016x\n", d)
		case "stats":
			st := idx.CacheStats()
			fmt.Printf("page reads: %d (seq %d, near %d, random %d), cache hits: %d\n",
				st.PageReads, st.Sequential, st.Near, st.Random, st.Hits)
		case "subset", "equality", "superset":
			pred, err := setcontain.ParsePredicate(cmd)
			if err != nil {
				fmt.Println(err)
				continue
			}
			items, err := parseItems(fields[1:])
			if err != nil {
				fmt.Println(err)
				continue
			}
			q := setcontain.Query{Pred: pred, Items: items}
			t0 := time.Now()
			ids, err := q.Eval(idx)
			if err != nil {
				fmt.Printf("%s: %v\n", q, err)
				continue
			}
			show := ids
			if len(show) > maxShow {
				show = show[:maxShow]
			}
			fmt.Printf("%s: %d records in %v: %v", q, len(ids), time.Since(t0).Round(time.Microsecond), show)
			if len(ids) > maxShow {
				fmt.Printf(" ... (+%d more)", len(ids)-maxShow)
			}
			fmt.Println()
		default:
			// Anything else is tried as a boolean expression in the
			// ParseExpr grammar: `subset{3} and not superset{17}`. Lines
			// that don't even look like one (no brace anywhere) keep the
			// unknown-command hint; a malformed expression gets the
			// parser's positioned error.
			line := strings.TrimSpace(sc.Text())
			if !strings.Contains(line, "{") {
				fmt.Printf("unknown command %q (try 'help')\n", cmd)
				continue
			}
			expr, err := setcontain.ParseExpr(line)
			if err != nil {
				fmt.Println(err)
				continue
			}
			t0 := time.Now()
			ids, err := idx.EvalExprLimit(expr, 0)
			if err != nil {
				fmt.Printf("%s: %v\n", expr, err)
				continue
			}
			show := ids
			if len(show) > maxShow {
				show = show[:maxShow]
			}
			fmt.Printf("%s: %d records in %v: %v", expr, len(ids), time.Since(t0).Round(time.Microsecond), show)
			if len(ids) > maxShow {
				fmt.Printf(" ... (+%d more)", len(ids)-maxShow)
			}
			fmt.Println()
		}
	}
}

// answerDigest runs a deterministic query sweep — 64 queries per
// predicate, items drawn from a fixed-seed RNG over the index's domain —
// and folds every answer id into an FNV-1a hash. Identical collections
// produce identical digests regardless of engine kind or whether the
// index was built or restored.
func answerDigest(idx *setcontain.Index) (uint64, error) {
	h := fnv.New64a()
	var word [8]byte
	domain := idx.Engine().DomainSize()
	if domain == 0 {
		return 0, fmt.Errorf("empty domain")
	}
	rng := rand.New(rand.NewSource(1))
	for _, pred := range []setcontain.Predicate{
		setcontain.PredicateSubset, setcontain.PredicateEquality, setcontain.PredicateSuperset,
	} {
		for i := 0; i < 64; i++ {
			k := 1 + rng.Intn(4)
			items := make([]setcontain.Item, k)
			for j := range items {
				items[j] = setcontain.Item(rng.Intn(domain))
			}
			ids, err := setcontain.Query{Pred: pred, Items: items}.Eval(idx)
			if err != nil {
				return 0, err
			}
			binary.LittleEndian.PutUint64(word[:], uint64(len(ids))^uint64(pred)<<32)
			h.Write(word[:])
			for _, id := range ids {
				binary.LittleEndian.PutUint32(word[:4], id)
				h.Write(word[:4])
			}
		}
	}
	return h.Sum64(), nil
}

// loadCollection reads a dataset file in the requested format, applying
// replication for the paper's msweb methodology.
func loadCollection(path, format string, replicas int) (*setcontain.Collection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch strings.ToLower(format) {
	case "text":
		return setcontain.ReadCollection(f)
	case "msweb":
		return setcontain.ReadMSWebCollection(f, replicas)
	default:
		return nil, fmt.Errorf("unknown format %q", format)
	}
}

func parseItems(fields []string) ([]setcontain.Item, error) {
	items := make([]setcontain.Item, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad item %q", f)
		}
		items = append(items, setcontain.Item(v))
	}
	return items, nil
}
