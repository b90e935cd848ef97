package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

var update = flag.Bool("update", false, "re-record testdata/section5.golden from this tree")

// section5Golden is the checked-in copy of section5Tables' output.
var section5Golden = filepath.Join("testdata", "section5.golden")

// TestSection5Golden holds the paper's §5 figures in tier-1, bit for bit:
// for every point of figures 7–10, of the ordering ablation and of the
// design ablation, each system's (IF, OIF, UBT) page accesses,
// sequential and random pages, modelled I/O time and answer count, and
// every number of the space comparison. CPU time is left out; all the
// rest is deterministic by seed. The performance summary (RunSummary) is
// not here: its defining number, update cost per record, is wall-clock
// CPU by the paper's own definition, and TestSummaryShapeAtPaperScale
// holds it to the paper's trade-off at 1M records instead. A change that
// moves pages on purpose re-records the file with
//
//	go test ./internal/experiments -run TestSection5Golden -update
//
// and the file's diff is the review of what moved.
func TestSection5Golden(t *testing.T) {
	got, err := section5Tables()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(section5Golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(section5Golden)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < max(len(gotLines), len(wantLines)) && shown < 10; i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %s\n want %s", section5Golden, i+1, g, w)
			shown++
		}
	}
	t.Errorf("§5 tables differ from %s (%d lines vs %d)", section5Golden, len(gotLines), len(wantLines))
}

// section5Tables runs the §5 experiments and prints their deterministic
// columns, one system at one point per line. Figures 7–10, the space
// comparison, the ordering ablation and the design ablation run at
// tinyConfig. Figure 7, the space comparison and the ordering ablation
// run again at oifbench's default scale (-scale 0.01 -realscale 0.1);
// figures 8–10 and the design ablation take seconds each there, so they
// do not.
func section5Tables() ([]byte, error) {
	var out bytes.Buffer
	tiny := tinyConfig(new(bytes.Buffer))

	fig, err := RunFig7(tiny)
	if err != nil {
		return nil, err
	}
	writeFigure(&out, "tiny", fig)
	runner := NewRunner(tiny)
	for _, kind := range []workload.Kind{workload.Subset, workload.Equality, workload.Superset} {
		fig, err := runner.SyntheticFigure(kind)
		if err != nil {
			return nil, err
		}
		writeFigure(&out, "tiny", fig)
	}
	space, err := RunSpace(tiny)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&out, "tiny\tspace\t%+v\n", space)
	if fig, err = RunOrdering(tiny); err != nil {
		return nil, err
	}
	writeFigure(&out, "tiny", fig)
	if fig, err = RunAblations(tiny); err != nil {
		return nil, err
	}
	writeFigure(&out, "tiny", fig)

	def := DefaultConfig(io.Discard)
	if fig, err = RunFig7(def); err != nil {
		return nil, err
	}
	writeFigure(&out, "scale0.01", fig)
	if space, err = RunSpace(def); err != nil {
		return nil, err
	}
	fmt.Fprintf(&out, "scale0.01\tspace\t%+v\n", space)
	if fig, err = RunOrdering(def); err != nil {
		return nil, err
	}
	writeFigure(&out, "scale0.01", fig)
	return out.Bytes(), nil
}

func writeFigure(w io.Writer, scale string, fig Figure) {
	for _, p := range fig.Panels {
		for _, pt := range p.Points {
			for _, s := range pt.Systems {
				m := s.M
				fmt.Fprintf(w, "%s\t%s\t%s\t%s=%s\t%s\tpages=%v seq=%v rand=%v io_ns=%d answers=%v\n",
					scale, fig.Name, p.Title, p.XLabel, pt.Param, s.Name,
					m.Pages, m.SeqPages, m.RandPages, int64(m.IO), m.Answers)
			}
		}
	}
}
