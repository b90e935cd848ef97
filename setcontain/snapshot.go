package setcontain

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/invfile"
	"repro/internal/snapio"
)

// Engine snapshots travel in a self-describing container: an 8-byte
// magic, a format version, the engine kind, and the runtime cache
// budget, followed by the engine's own versioned payload (the OIF or
// inverted-file snapshot stream, each guarded by its own CRC trailer).
// Open reads the header and reconstructs the right engine without the
// caller restating build options — everything structural (page size,
// block postings, tag prefix, tombstones, pending deltas) lives inside
// the payloads.
//
// A sharded engine's payload is a manifest — shard count, partition
// scheme, per-shard plans — followed by one length-framed sub-container
// per shard. Shard payloads are encoded and decoded in parallel, so
// snapshotting scales with cores the same way building does.

const (
	containerMagic   = "SCSNAP01"
	containerVersion = 1

	// maxSnapshotShards bounds the manifest's shard count so a corrupt
	// header cannot force a huge allocation.
	maxSnapshotShards = 1 << 16

	// manifestRoundRobin is the sharded manifest's partition-scheme
	// word. Round-robin is the only scheme ever written; a reader refuses
	// any other value rather than misroute a newer writer's records.
	manifestRoundRobin = 0
)

// ErrBadSnapshot reports a corrupt or foreign snapshot container.
var ErrBadSnapshot = errors.New("setcontain: bad snapshot")

// saveContainer writes the CRC-guarded container header, then the
// payload. The payload brings its own CRC trailer (the backend snapshot
// streams do; the sharded manifest adds one), so every byte of a
// container is covered by some checksum.
func saveContainer(w io.Writer, kind Kind, cachePages int, payload func(io.Writer) error) error {
	cw := snapio.NewWriter(w)
	if _, err := io.WriteString(cw, containerMagic); err != nil {
		return err
	}
	for _, v := range []uint32{containerVersion, uint32(kind), uint32(cachePages), 0} {
		if err := snapio.WriteU32(cw, v); err != nil {
			return err
		}
	}
	if err := cw.WriteTrailer(); err != nil {
		return err
	}
	return payload(w)
}

// readContainerHeader consumes and validates the container header.
func readContainerHeader(r io.Reader) (kind Kind, cachePages int, err error) {
	cr := snapio.NewReader(r)
	magic := make([]byte, len(containerMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if string(magic) != containerMagic {
		return 0, 0, fmt.Errorf("%w: magic %q", ErrBadSnapshot, magic)
	}
	var hdr [4]uint32
	for i := range hdr {
		v, err := snapio.ReadU32(cr)
		if err != nil {
			return 0, 0, fmt.Errorf("%w: header: %v", ErrBadSnapshot, err)
		}
		hdr[i] = v
	}
	if err := cr.VerifyTrailer(); err != nil {
		return 0, 0, fmt.Errorf("%w: header: %v", ErrBadSnapshot, err)
	}
	if hdr[0] != containerVersion {
		return 0, 0, fmt.Errorf("%w: unsupported container version %d", ErrBadSnapshot, hdr[0])
	}
	return Kind(hdr[1]), int(hdr[2]), nil
}

// Open reconstructs an Index from a snapshot written by Index.Save (or
// Engine.Save): the container header selects the engine kind, the
// payload restores its state — including pending inserts and tombstones
// — without touching the original dataset. Functional options override
// only runtime knobs; currently WithCachePages (0 keeps the cache budget
// recorded in the snapshot). Structural options are always taken from
// the snapshot itself.
func Open(r io.Reader, opts ...Option) (*Index, error) {
	eng, err := openEngine(r, newOptions(opts...), false)
	if err != nil {
		return nil, err
	}
	return &Index{eng: eng}, nil
}

// openEngine reads one container and reconstructs its engine. nested
// guards against sharded-inside-sharded streams, which the writer never
// produces.
func openEngine(r io.Reader, o Options, nested bool) (Engine, error) {
	kind, cachePages, err := readContainerHeader(r)
	if err != nil {
		return nil, err
	}
	if o.CachePages == 0 {
		o.CachePages = cachePages
	}
	switch kind {
	case OIF:
		ix, err := core.Load(r)
		if err != nil {
			return nil, err
		}
		return attach(ix, o)
	case InvertedFile:
		ix, err := invfile.Load(r)
		if err != nil {
			return nil, err
		}
		return attach(ix, o)
	case Sharded:
		if nested {
			return nil, fmt.Errorf("%w: nested sharded container", ErrBadSnapshot)
		}
		return loadShardedPayload(r, o)
	default:
		return nil, fmt.Errorf("%w: kind %v has no snapshot support", ErrBadSnapshot, kind)
	}
}

// Save on a sharded engine: the manifest plus per-shard sub-containers,
// encoded in parallel and written as length-framed blobs.
func (e *shardedEngine) Save(w io.Writer) error {
	// Remote shards have no local buffer pool; record a zero cache
	// budget and let Open's defaults (or WithCachePages) decide.
	cachePages := 0
	if p := e.Pool(); p != nil {
		cachePages = p.Capacity()
	}
	return saveContainer(w, Sharded, cachePages, e.saveShardedPayload)
}

func (e *shardedEngine) saveShardedPayload(w io.Writer) error {
	n := len(e.clients)
	bufs := make([]bytes.Buffer, n)
	errs := fanout.ForEach(n, 0, func(s int) error {
		return e.clients[s].Snapshot(context.Background(), &bufs[s])
	})
	for s, err := range errs {
		if err != nil {
			return fmt.Errorf("setcontain: snapshotting shard %d: %w", s, err)
		}
	}

	// The manifest — shard count, partition scheme, plans, and the frame
	// lengths — carries its own CRC trailer; the frames that follow are
	// nested containers verifying themselves.
	cw := snapio.NewWriter(w)
	for _, v := range []uint32{uint32(n), manifestRoundRobin, uint32(e.domain)} {
		if err := snapio.WriteU32(cw, v); err != nil {
			return err
		}
	}
	for _, p := range e.plans {
		for _, v := range []uint32{uint32(p.Kind), uint32(p.Records), uint32(p.BlockPostings)} {
			if err := snapio.WriteU32(cw, v); err != nil {
				return err
			}
		}
		if err := snapio.WriteU64(cw, math.Float64bits(p.Theta)); err != nil {
			return err
		}
	}
	for s := range bufs {
		if err := snapio.WriteU64(cw, uint64(bufs[s].Len())); err != nil {
			return err
		}
	}
	if err := cw.WriteTrailer(); err != nil {
		return err
	}
	for s := range bufs {
		if _, err := w.Write(bufs[s].Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// shardManifest is the decoded sharded-payload manifest: the
// vocabulary, build-time plans, and the byte length of every shard's
// nested sub-container frame that follows it.
type shardManifest struct {
	domain    int
	plans     []ShardPlan
	frameLens []uint64
}

// readShardManifest consumes and validates the CRC-trailed sharded
// manifest, leaving r positioned at the first shard frame.
func readShardManifest(r io.Reader) (*shardManifest, error) {
	cr := snapio.NewReader(r)
	var hdr [3]uint32
	for i := range hdr {
		v, err := snapio.ReadU32(cr)
		if err != nil {
			return nil, fmt.Errorf("%w: sharded manifest: %v", ErrBadSnapshot, err)
		}
		hdr[i] = v
	}
	n := int(hdr[0])
	if n <= 0 || n > maxSnapshotShards {
		return nil, fmt.Errorf("%w: implausible shard count %d", ErrBadSnapshot, n)
	}
	if hdr[1] != manifestRoundRobin {
		return nil, fmt.Errorf("%w: unknown partition scheme %d", ErrBadSnapshot, hdr[1])
	}
	m := &shardManifest{
		domain:    int(hdr[2]),
		plans:     make([]ShardPlan, n),
		frameLens: make([]uint64, n),
	}
	for s := range m.plans {
		var pw [3]uint32
		for i := range pw {
			v, err := snapio.ReadU32(cr)
			if err != nil {
				return nil, fmt.Errorf("%w: shard %d plan: %v", ErrBadSnapshot, s, err)
			}
			pw[i] = v
		}
		theta, err := snapio.ReadU64(cr)
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d plan: %v", ErrBadSnapshot, s, err)
		}
		m.plans[s] = ShardPlan{
			Shard:         s,
			Kind:          Kind(pw[0]),
			Records:       int(pw[1]),
			BlockPostings: int(pw[2]),
			Theta:         math.Float64frombits(theta),
		}
	}
	for s := range m.frameLens {
		v, err := snapio.ReadU64(cr)
		if err != nil || v > snapio.MaxSliceLen {
			return nil, fmt.Errorf("%w: shard %d frame length", ErrBadSnapshot, s)
		}
		m.frameLens[s] = v
	}
	if err := cr.VerifyTrailer(); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrBadSnapshot, err)
	}
	return m, nil
}

// loadShardedPayload reads the manifest, then decodes every shard's
// sub-container in parallel and reassembles the sharded engine, over
// in-process clients of the restored shards, with its build-time plans.
func loadShardedPayload(r io.Reader, o Options) (Engine, error) {
	m, err := readShardManifest(r)
	if err != nil {
		return nil, err
	}
	n := len(m.plans)
	frames := make([][]byte, n)
	for s := range frames {
		if frames[s], err = snapio.ReadN(r, m.frameLens[s]); err != nil {
			return nil, fmt.Errorf("%w: shard %d frame: %v", ErrBadSnapshot, s, err)
		}
	}

	clients := make([]ShardClient, n)
	errs := fanout.ForEach(n, 0, func(s int) error {
		eng, err := openEngine(bytes.NewReader(frames[s]), o, true)
		if err != nil {
			return err
		}
		if eng.Kind() != m.plans[s].Kind {
			return fmt.Errorf("%w: shard is %v, manifest says %v",
				ErrBadSnapshot, eng.Kind(), m.plans[s].Kind)
		}
		clients[s] = InprocShard(eng)
		return nil
	})
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	e, err := assembleSharded(context.Background(), NewRoundRobinPartitioner(n), clients, m.plans)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	if e.domain != m.domain {
		return nil, fmt.Errorf("%w: shards have domain %d, manifest says %d", ErrBadSnapshot, e.domain, m.domain)
	}
	return e, nil
}

// SplitSnapshot reads a sharded snapshot container from r and emits
// every shard's frame in shard order. Each frame is itself a complete
// single-engine snapshot container — bootable standalone by Open or
// `setcontaind -snapshot` — which is how a coordinator's snapshot is
// decomposed into per-shard snapshots for remote shard daemons to
// restore from. emit must consume the frame before returning (any
// unread remainder is drained); a non-nil emit error aborts the split.
func SplitSnapshot(r io.Reader, emit func(shard int, plan ShardPlan, frame io.Reader) error) error {
	kind, _, err := readContainerHeader(r)
	if err != nil {
		return err
	}
	if kind != Sharded {
		return fmt.Errorf("%w: cannot split a %v container into shards", ErrBadSnapshot, kind)
	}
	m, err := readShardManifest(r)
	if err != nil {
		return err
	}
	for s := range m.plans {
		lr := io.LimitReader(r, int64(m.frameLens[s]))
		if err := emit(s, m.plans[s], lr); err != nil {
			return fmt.Errorf("setcontain: splitting shard %d: %w", s, err)
		}
		if _, err := io.Copy(io.Discard, lr); err != nil {
			return fmt.Errorf("%w: shard %d frame: %v", ErrBadSnapshot, s, err)
		}
	}
	return nil
}
