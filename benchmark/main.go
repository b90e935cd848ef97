// Command benchmark is the repository's benchmark: it builds its inputs
// from a seed, runs one of five named workloads against the set-containment
// engine at a chosen rung (core index, Store, HTTP daemon, coordinator over
// remote shards, durable store), checks every answer against
// internal/naive, and prints the metrics BENCHMARK.json names.
//
//	bash benchmark/run.sh --workload store_warm --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics on an
// untraced run (--trace 0), the per-layer metrics on a traced one
// (--trace 1). See benchmark/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract line: exactly these four keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line renders the run's contract line: every end-to-end metric on an
// untraced run, every per-layer metric (0 where the workload has none) on
// a traced one.
func (r *runner) line() resultLine {
	defs := endToEnd
	if r.cfg.trace {
		defs = perLayer
	}
	out := resultLine{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	complete := true
	for _, d := range defs {
		v, ok := r.m.vals[d.name]
		if !ok && !r.cfg.trace {
			complete = false
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out.Correct = r.failed == 0 && len(r.m.errs) == 0 && complete && r.attempted > 0
	return out
}

func gitRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// document is what result.json holds for one invocation.
func document(cfg config, runs []*runner) map[string]any {
	ws := map[string]any{}
	for _, r := range runs {
		all := map[string]metricValue{}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				if v, ok := r.m.vals[d.name]; ok {
					all[d.name] = metricValue{Value: v, Unit: d.unit}
				}
			}
		}
		ws[r.cfg.workload] = map[string]any{
			"result": r.line(), "all_metrics": all, "detail": r.doc, "errors": r.errs,
		}
	}
	return map[string]any{
		"claim": nil,
		"environment": map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"git": gitRevision(),
		},
		"parameters": map[string]any{
			"seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace, "records": cfg.records,
			"domain": cfg.syntheticConfig().DomainSize, "zipf_theta": cfg.syntheticConfig().ZipfTheta,
			"min_len": cfg.syntheticConfig().MinLen, "max_len": cfg.syntheticConfig().MaxLen,
			"pool_ops": cfg.poolOps, "clients": cfg.clients, "segments": cfg.segments, "setup_reps": cfg.setupReps,
		},
		"workloads": ws,
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs the named workloads one after another, printing each one's
// contract line, and writes the invocation's document.
func runAll(cfg config, names []string) ([]*runner, error) {
	var runs []*runner
	for _, name := range names {
		c := cfg
		c.workload = name
		r, err := runWorkload(c)
		if err != nil {
			return runs, err
		}
		runs = append(runs, r)
		for _, e := range r.errs {
			fmt.Fprintf(os.Stderr, "%s: %s\n", name, e)
		}
		if len(names) > 1 {
			fmt.Printf("# workload %s\n", name)
		}
		b, err := json.Marshal(r.line())
		if err != nil {
			return runs, err
		}
		fmt.Println(string(b))
	}
	name := "result.json"
	if cfg.trace {
		name = "result-trace.json"
	}
	return runs, writeJSON(filepath.Join(cfg.outDir, name), document(cfg, runs))
}

func main() {
	cfg := defaultConfig()
	workloads := flag.String("workload", "all", "workload to run: one of "+strings.Join(workloadNames(), ", ")+", a comma-separated list, or all")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of the measured window")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	repeat := flag.Int("repeat", 1, "run the suite this many times and fail if two sets disagree beyond the bounds")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seconds <= 0 || (*trace != 0 && *trace != 1) || *repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	names := workloadNames()
	if *workloads != "all" {
		names = strings.Split(*workloads, ",")
	}
	// The checkout the benchmark runs in is the repository root: the
	// results and the temp files live under it.
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the repository root (bash benchmark/run.sh)")
		os.Exit(2)
	}

	var sets [][]*runner
	for i := 0; i < *repeat; i++ {
		runs, err := runAll(cfg, names)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		sets = append(sets, runs)
	}
	failed := false
	for _, runs := range sets {
		for _, r := range runs {
			if !r.line().Correct {
				failed = true
			}
		}
	}
	if *repeat > 1 {
		report, agree := repeatability(cfg, sets)
		path := filepath.Join(cfg.outDir, "REPEATABILITY.md")
		if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchmark: repeatability report in %s (agree=%v)\n", path, agree)
		failed = failed || !agree
	}
	if failed {
		os.Exit(1)
	}
}
