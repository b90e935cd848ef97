package storage

import "time"

// DiskModel converts a page-access trace into estimated I/O time. The paper
// reports query time split into CPU and I/O on a c. 2010 magnetic disk;
// since our substrate is simulated, we apply an explicit model instead:
// every random miss pays a positioning latency (seek + rotation), every
// sequential miss pays only the transfer time of one page. A trace holds
// reads only: a BufferPool never writes, and queries are what is modelled.
//
// The defaults approximate a 7200 rpm SATA disk of the paper's era:
// ~8 ms average positioning, ~35 MB/s effective sequential transfer
// (≈0.11 ms per 4 KB page). The conclusions drawn from it (docs/BENCHMARKS.md,
// "The paper's figures") are about shapes and ratios, which are
// insensitive to the exact constants.
type DiskModel struct {
	// RandomLatency is charged per far (full-seek) page miss.
	RandomLatency time.Duration
	// NearLatency is charged per near miss: a jump of at most NearWindow
	// pages, served by a short-stroke seek or the drive's track cache.
	// The paper relies on this regime — it leaves the hard-disk cache
	// enabled and observes that the OIF's extra random accesses have a
	// "quite limited" effect.
	NearLatency time.Duration
	// SequentialLatency is charged per sequential page miss.
	SequentialLatency time.Duration
}

// DefaultDiskModel returns the constants described on DiskModel. The
// random figure is a within-file seek, not a full-platter stroke: every
// index file here is far smaller than a platter, so a "far" jump is a
// short-stroke seek (~1-3 ms) plus half-rotation (~4.2 ms at 7200 rpm),
// about 5 ms. Full-stroke randoms on such disks cost 12-13 ms, but never
// occur inside one file.
func DefaultDiskModel() DiskModel {
	return DiskModel{
		RandomLatency:     5 * time.Millisecond,
		NearLatency:       1 * time.Millisecond,
		SequentialLatency: 110 * time.Microsecond,
	}
}

// Time returns the modelled I/O time of a trace.
func (m DiskModel) Time(s AccessStats) time.Duration {
	return time.Duration(s.RandMisses)*m.RandomLatency +
		time.Duration(s.NearMisses)*m.NearLatency +
		time.Duration(s.SeqMisses)*m.SequentialLatency
}
