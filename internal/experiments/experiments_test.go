package experiments

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/workload"
)

// tinyConfig keeps experiment tests fast: a couple of thousand records.
func tinyConfig(out *bytes.Buffer) Config {
	cfg := DefaultConfig(out)
	cfg.Scale = 0.0001 // floor of 2000 records kicks in
	cfg.RealScale = 0.02
	cfg.QueriesPerSize = 3
	return cfg
}

func TestMeasureWorkloadBasics(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.fill()
	d, err := dataset.GenerateSynthetic(cfg.SyntheticDefaults())
	if err != nil {
		t.Fatal(err)
	}
	pair, err := cfg.BuildPair(d)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(d, 3)
	queries := gen.SubsetQueries(3, 5)
	m, err := MeasureWorkload(pair.OIF, queries, cfg.Disk)
	if err != nil {
		t.Fatal(err)
	}
	if m.Queries != 5 {
		t.Fatalf("measured %d queries", m.Queries)
	}
	if m.Pages <= 0 {
		t.Fatal("no page accesses recorded")
	}
	if m.Answers <= 0 {
		t.Fatal("queries had no answers — workload contract broken")
	}
	if m.IO <= 0 {
		t.Fatal("no modelled I/O time")
	}
}

func TestBuildPairAndSystems(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.fill()
	d, err := dataset.GenerateSynthetic(cfg.SyntheticDefaults())
	if err != nil {
		t.Fatal(err)
	}
	pair, err := cfg.BuildPair(d)
	if err != nil {
		t.Fatal(err)
	}
	sys := pair.Systems()
	if len(sys) != 2 || sys[0].Name != "IF" || sys[1].Name != "OIF" {
		t.Fatalf("systems = %+v", sys)
	}
	// Both pools must be at the measurement size.
	if pair.IF.Pool().Capacity() != cfg.PoolPages || pair.OIF.Pool().Capacity() != cfg.PoolPages {
		t.Fatal("pair not metered")
	}
}

// TestIFandOIFAgreeUnderHarness is the harness-level cross-check: both
// systems must return identical answers for every workload query.
func TestIFandOIFAgreeUnderHarness(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.fill()
	d, err := dataset.GenerateSynthetic(cfg.SyntheticDefaults())
	if err != nil {
		t.Fatal(err)
	}
	pair, err := cfg.BuildPair(d)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := cfg.BuildUnordered(d)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(d, 9)
	for _, kind := range []workload.Kind{workload.Subset, workload.Equality, workload.Superset} {
		for size := 2; size <= 6; size++ {
			for _, q := range gen.Queries(kind, size, 3) {
				a, err := runQuery(pair.IF, q)
				if err != nil {
					t.Fatal(err)
				}
				b, err := runQuery(pair.OIF, q)
				if err != nil {
					t.Fatal(err)
				}
				c, err := runQuery(ub, q)
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != len(b) || len(a) != len(c) {
					t.Fatalf("%v %v: IF %d, OIF %d, UBT %d answers", kind, q.Items, len(a), len(b), len(c))
				}
				for i := range a {
					if a[i] != b[i] || a[i] != c[i] {
						t.Fatalf("%v %v: answers diverge at %d", kind, q.Items, i)
					}
				}
			}
		}
	}
}

// dropLast is a ContainmentIndex that loses the last id of every subset
// answer: a wrong system MeasureSystems must refuse.
type dropLast struct{ ContainmentIndex }

func (d dropLast) Subset(qs []dataset.Item) ([]uint32, error) {
	res, err := d.ContainmentIndex.Subset(qs)
	if len(res) > 0 {
		res = res[:len(res)-1]
	}
	return res, err
}

// TestMeasureSystemsRefusesDisagreement: PrintFigure prints one answers
// column per point, so a system that answers differently from the others
// must fail the measurement rather than pass unseen.
func TestMeasureSystemsRefusesDisagreement(t *testing.T) {
	cfg := tinyConfig(new(bytes.Buffer))
	cfg.fill()
	d, err := dataset.GenerateSynthetic(cfg.SyntheticDefaults())
	if err != nil {
		t.Fatal(err)
	}
	pair, err := cfg.BuildPair(d)
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.NewGenerator(d, 3).SubsetQueries(3, 5)
	if _, err := MeasureSystems(pair.Systems(), queries, cfg.Disk); err != nil {
		t.Fatalf("agreeing systems refused: %v", err)
	}
	systems := []SystemIndex{{Name: "IF", Index: pair.IF}, {Name: "lossy", Index: dropLast{pair.OIF}}}
	_, err = MeasureSystems(systems, queries, cfg.Disk)
	if err == nil || !strings.Contains(err.Error(), "IF") || !strings.Contains(err.Error(), "lossy") {
		t.Fatalf("MeasureSystems over a system that drops an id = %v, want an error naming IF and lossy", err)
	}
}

// TestExperimentsStandOnBackends keeps the §5 reproduction off the
// product API: the experiments build, meter and query core, invfile and
// ubtree indexes directly. Only the file declaring AsQuery — the bridge
// for measurement code on the public API — may import repro/setcontain.
func TestExperimentsStandOnBackends(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	parsed := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro/setcontain"` && !declaresAsQuery(t, fset, name) {
				t.Errorf("%s imports repro/setcontain; only the file declaring AsQuery may", name)
			}
		}
	}
	if parsed == 0 {
		t.Fatal("no non-test files found")
	}
}

func declaresAsQuery(t *testing.T, fset *token.FileSet, name string) bool {
	f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == "AsQuery" {
			return true
		}
	}
	return false
}

func TestRunFig7Small(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	fig, err := RunFig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 6 { // 2 datasets x 3 predicates
		t.Fatalf("fig7 has %d panels, want 6", len(fig.Panels))
	}
	for _, p := range fig.Panels {
		if len(p.Points) == 0 {
			t.Fatalf("panel %q empty", p.Title)
		}
	}
	if !strings.Contains(out.String(), "Figure 7") {
		t.Fatal("no printed output")
	}
}

func TestRunSyntheticFigureSmall(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	fig, err := RunSyntheticFigure(cfg, workload.Equality)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 4 {
		t.Fatalf("fig has %d panels, want 4", len(fig.Panels))
	}
	for _, p := range fig.Panels {
		if len(p.Points) == 0 {
			t.Fatalf("panel %q empty", p.Title)
		}
	}
}

// TestEqualityShapeAtModerateScale asserts the paper's headline on a
// database large enough for lists to span many pages: OIF equality pages
// far below IF pages (Fig. 9). At tiny scale the paper itself observes
// the advantage vanish ("for the smallest dataset of 1M records ... the
// I/O cost is similar"), so shape checks need this size.
func TestEqualityShapeAtModerateScale(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale shape check")
	}
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.fill()
	sc := cfg.SyntheticDefaults()
	sc.NumRecords = 100000
	d, err := dataset.GenerateSynthetic(sc)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := cfg.BuildPair(d)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(d, 7)
	queries := gen.EqualityQueries(4, 10)
	sys, err := MeasureSystems(pair.Systems(), queries, cfg.Disk)
	if err != nil {
		t.Fatal(err)
	}
	ifM, oifM := sys[0].M, sys[1].M
	if oifM.Pages*2 >= ifM.Pages {
		t.Fatalf("equality at 100K records: OIF pages %.1f not well below IF pages %.1f", oifM.Pages, ifM.Pages)
	}
	// Subset at the same scale must also favour the OIF.
	queries = gen.SubsetQueries(4, 10)
	sys, err = MeasureSystems(pair.Systems(), queries, cfg.Disk)
	if err != nil {
		t.Fatal(err)
	}
	if sys[1].M.Pages >= sys[0].M.Pages {
		t.Fatalf("subset at 100K records: OIF pages %.1f >= IF pages %.1f", sys[1].M.Pages, sys[0].M.Pages)
	}
}

func TestRunSpaceSmall(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	res, err := RunSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DataBytes <= 0 || res.IFStoreBytes <= 0 || res.OIFTreeBytes <= 0 {
		t.Fatalf("empty space result: %+v", res)
	}
	// Paper shape: the OIF table is larger than the IF store.
	if res.OIFTreeBytes <= res.IFStoreBytes {
		t.Fatalf("OIF tree %d <= IF store %d; paper shape violated", res.OIFTreeBytes, res.IFStoreBytes)
	}
	// And OIF lists must not exceed IF lists (metadata absorbs postings).
	if res.OIFListBytes > res.IFListBytes {
		t.Fatalf("OIF lists %d > IF lists %d", res.OIFListBytes, res.IFListBytes)
	}
}

// TestSpaceFractionsAtModerateScale pins the paper's reported bands
// loosely: IF around a fifth of the data, OIF noticeably larger.
func TestSpaceFractionsAtModerateScale(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale shape check")
	}
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.fill()
	sc := cfg.SyntheticDefaults()
	sc.NumRecords = 100000
	d, err := dataset.GenerateSynthetic(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSpaceOn(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports IF ~22% and OIF ~35% of "the original data" — a
	// Berkeley DB relation with physical record overheads. Our DataBytes
	// baseline is a dense logical encoding (4 bytes/item), so absolute
	// fractions shift up by a constant; the orderings are the comparison.
	if f := res.IFFraction(); f <= 0 || f >= 1.0 {
		t.Fatalf("IF fraction %.2f implausible: compressed lists must beat raw data", f)
	}
	if res.OIFFraction() <= res.IFFraction() {
		t.Fatalf("OIF fraction %.2f <= IF fraction %.2f", res.OIFFraction(), res.IFFraction())
	}
	if res.OIFWithMapFraction() <= res.OIFFraction() {
		t.Fatal("map must add space")
	}
	// OIF lists stay within a few percent of IF lists (paper: ~5% smaller;
	// the d-gap re-basing per block costs some of the metadata savings).
	if s := res.ListShrink(); s < 0.7 || s > 1.05 {
		t.Fatalf("OIF/IF list ratio %.2f outside plausible band", s)
	}
}

func TestRunOrderingSmall(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	fig, err := RunOrdering(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 2 {
		t.Fatalf("ordering ablation has %d panels, want selectivity + frequent-item", len(fig.Panels))
	}
	if len(fig.Panels[0].Points) == 0 || len(fig.Panels[1].Points) == 0 {
		t.Fatal("ordering ablation produced no points")
	}
	// Each point must carry both systems.
	for _, p := range fig.Panels[1].Points {
		if _, ok := p.Get("UBT"); !ok {
			t.Fatal("missing UBT metrics")
		}
		if _, ok := p.Get("OIF"); !ok {
			t.Fatal("missing OIF metrics")
		}
	}
}

func TestRunSummarySmall(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	res, err := RunSummary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryIF <= 0 || res.QueryOIF <= 0 || res.UpdateIF <= 0 || res.UpdateOIF <= 0 {
		t.Fatalf("summary fields empty: %+v", res)
	}
	if !strings.Contains(out.String(), "break-even") {
		t.Fatal("summary not printed")
	}
}

// TestSummaryShapeAtPaperScale asserts the paper's trade-off at its own
// dataset size (1M records). At 1M our disk model puts the combined
// average near parity (the time crossover sits slightly above 1M in our
// substrate), so the robust assertions are: OIF clearly faster on
// equality and superset, combined average within a narrow band of the
// IF's, and updates 2-6x dearer for the OIF (the paper reports 3-5x);
// all at the paper's 20% delta ratio.
func TestSummaryShapeAtPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale shape check (~30s)")
	}
	if raceEnabled {
		t.Skip("wall-clock ratios skew under the race detector")
	}
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	cfg.Scale = 1.0 // summary dataset: 1M records as in the paper
	cfg.QueriesPerSize = 3
	res, err := RunSummary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eqIF, eqOIF := res.PerPredicateIF[workload.Equality], res.PerPredicateOIF[workload.Equality]; eqOIF >= eqIF {
		t.Fatalf("equality: OIF %v >= IF %v", eqOIF, eqIF)
	}
	if supIF, supOIF := res.PerPredicateIF[workload.Superset], res.PerPredicateOIF[workload.Superset]; supOIF >= supIF {
		t.Fatalf("superset: OIF %v >= IF %v", supOIF, supIF)
	}
	if float64(res.QueryOIF) > 1.3*float64(res.QueryIF) {
		t.Fatalf("combined: OIF %v far above IF %v", res.QueryOIF, res.QueryIF)
	}
	slow := float64(res.UpdateOIF) / float64(res.UpdateIF)
	if slow < 1.5 || slow > 8 {
		t.Fatalf("OIF update slowdown %.1fx outside the paper's band", slow)
	}
}

func TestConfigFillDefaults(t *testing.T) {
	var c Config
	c.fill()
	if c.Scale <= 0 || c.PageSize <= 0 || c.PoolPages <= 0 || c.QueriesPerSize <= 0 {
		t.Fatalf("fill left zero fields: %+v", c)
	}
	if c.Disk.RandomLatency == 0 {
		t.Fatal("disk model not defaulted")
	}
	if c.scaled(10_000_000) < 2000 {
		t.Fatal("scaled floor broken")
	}
}

func TestRunAblationsSmall(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(&out)
	fig, err := RunAblations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 3 {
		t.Fatalf("ablations produced %d panels, want 3", len(fig.Panels))
	}
	for _, p := range fig.Panels {
		if len(p.Points) == 0 {
			t.Fatalf("panel %q empty", p.Title)
		}
	}
	// Cache panel: a bigger cache can only reduce page reads.
	cache := fig.Panels[2]
	firstIF, _ := cache.Points[0].Get("IF")
	lastIF, _ := cache.Points[len(cache.Points)-1].Get("IF")
	if lastIF.Pages > firstIF.Pages {
		t.Fatalf("IF pages rose with cache size: %.1f -> %.1f", firstIF.Pages, lastIF.Pages)
	}
	firstOIF, _ := cache.Points[0].Get("OIF")
	lastOIF, _ := cache.Points[len(cache.Points)-1].Get("OIF")
	if lastOIF.Pages > firstOIF.Pages {
		t.Fatalf("OIF pages rose with cache size: %.1f -> %.1f", firstOIF.Pages, lastOIF.Pages)
	}
	// Tag-prefix panel points carry tree sizes in their labels.
	if !strings.Contains(fig.Panels[1].Points[0].Param, "tree") {
		t.Fatalf("tag panel label %q lacks tree size", fig.Panels[1].Points[0].Param)
	}
}
