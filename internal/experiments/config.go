// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): Fig. 7 (real-data page accesses), Figs. 8-10
// (synthetic sweeps for subset/equality/superset over domain size,
// database size, query size and skew, in page accesses and CPU+I/O time),
// the space-overhead comparison, the unordered-B-tree ordering ablation,
// and the query/update performance summary.
//
// Measurements follow the paper's protocol on the index structures
// themselves (core, invfile, ubtree; not the setcontain API): each is
// built straight to its pager, then queries run through a minimal buffer
// pool (32 KB by default — 8 pages of 4 KB) whose cache misses are the
// reported "disk page accesses". CPU time is measured wall time over the
// in-memory pager; I/O time is modelled from the sequential/random miss
// counts by storage.DiskModel (docs/BENCHMARKS.md has the rationale).
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dataset"
	"repro/internal/storage"
)

// Config controls dataset scale and measurement.
type Config struct {
	// Scale multiplies the paper's synthetic database sizes (10M default
	// |D|). 1.0 reproduces paper scale; the default 0.01 keeps the whole
	// suite laptop-fast while preserving every comparison's shape.
	Scale float64
	// RealScale multiplies the real-dataset twins' record counts
	// (msweb 327K, msnbc 990K).
	RealScale float64
	// PageSize for all index files.
	PageSize int
	// BlockPostings for OIF and unordered-B-tree blocks.
	BlockPostings int
	// PoolPages is the measurement buffer pool size; the paper's minimum
	// cache is 32 KB = 8 pages of 4 KB.
	PoolPages int
	// QueriesPerSize matches the paper's 10 queries per size and type.
	QueriesPerSize int
	// Seed drives dataset generation and workloads.
	Seed int64
	// Disk converts access traces to I/O time.
	Disk storage.DiskModel
	// Out receives the printed tables. Required.
	Out io.Writer
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig(out io.Writer) Config {
	return Config{
		Scale:          0.01,
		RealScale:      0.1,
		PageSize:       storage.DefaultPageSize,
		BlockPostings:  64,
		PoolPages:      storage.DefaultPoolPages,
		QueriesPerSize: 10,
		Seed:           1,
		Disk:           storage.DefaultDiskModel(),
		Out:            out,
	}
}

// fill copies DefaultConfig's value into every zero field.
func (c *Config) fill() {
	def := DefaultConfig(io.Discard)
	if c.Scale <= 0 {
		c.Scale = def.Scale
	}
	if c.RealScale <= 0 {
		c.RealScale = def.RealScale
	}
	if c.PageSize <= 0 {
		c.PageSize = def.PageSize
	}
	if c.BlockPostings <= 0 {
		c.BlockPostings = def.BlockPostings
	}
	if c.PoolPages <= 0 {
		c.PoolPages = def.PoolPages
	}
	if c.QueriesPerSize <= 0 {
		c.QueriesPerSize = def.QueriesPerSize
	}
	if c.Seed == 0 {
		c.Seed = def.Seed
	}
	if c.Disk == (storage.DiskModel{}) {
		c.Disk = def.Disk
	}
	if c.Out == nil {
		c.Out = def.Out
	}
}

// scaled applies Scale to a paper-scale record count, with a small floor
// so tiny scales still exercise multi-block lists.
func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 2000 {
		v = 2000
	}
	return v
}

// ContainmentIndex is the common query surface of the three competing
// indexes (core.Index, invfile.Index, ubtree.Index); a setcontain.Engine
// satisfies it too.
type ContainmentIndex interface {
	Subset([]dataset.Item) ([]uint32, error)
	Equality([]dataset.Item) ([]uint32, error)
	Superset([]dataset.Item) ([]uint32, error)
	SetPool(*storage.BufferPool) error
	Pool() *storage.BufferPool
}

// Metrics aggregates per-query measurements, averaged over a workload.
type Metrics struct {
	Queries   int
	Pages     float64 // disk page accesses (buffer-pool misses)
	SeqPages  float64
	RandPages float64
	CPU       time.Duration // measured compute time
	IO        time.Duration // modelled disk time
	Answers   float64
}

// Total returns CPU + modelled I/O.
func (m Metrics) Total() time.Duration { return m.CPU + m.IO }

func (m Metrics) String() string {
	return fmt.Sprintf("pages=%.1f (seq %.1f, rand %.1f) cpu=%s io=%s answers=%.1f",
		m.Pages, m.SeqPages, m.RandPages, m.CPU, m.IO, m.Answers)
}

// SystemMetrics labels a Metrics with the system that produced it.
type SystemMetrics struct {
	Name string
	M    Metrics
}

// Point is one x-position of a figure panel: the parameter value and the
// metrics of every system measured there.
type Point struct {
	Param   string
	Systems []SystemMetrics
}

// Get returns the metrics for a system name.
func (p Point) Get(name string) (Metrics, bool) {
	for _, s := range p.Systems {
		if s.Name == name {
			return s.M, true
		}
	}
	return Metrics{}, false
}

// Panel is one sub-plot of a paper figure.
type Panel struct {
	Title  string
	XLabel string
	Points []Point
}

// Figure is a regenerated paper artefact.
type Figure struct {
	Name   string
	Panels []Panel
}
