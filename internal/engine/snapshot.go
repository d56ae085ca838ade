package engine

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"

	"slacksim/internal/adaptive"
	"slacksim/internal/core"
	"slacksim/internal/event"
	"slacksim/internal/mem"
	"slacksim/internal/syncctl"
	"slacksim/internal/trace"
	"slacksim/internal/uncore"
	"slacksim/internal/violation"
)

// encBufPool recycles snapshot-encode buffers across exports.
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ErrSnapshotted reports that a run stopped at a checkpoint boundary to
// export its state (RunConfig.SnapshotRequest): the serialized state was
// delivered through RunConfig.OnSnapshot and the run can be continued —
// on any node — with Resume.
var ErrSnapshotted = errors.New("engine: run snapshotted at checkpoint boundary")

// EngineStateVersion versions the serialized engine state produced by
// snapshot export (bump on any layout change; Resume rejects mismatches).
const EngineStateVersion = 1

// snapshotRequested reports whether the run should export its state at
// the next checkpoint boundary.
func (r *detRun) snapshotRequested() bool {
	return r.cfg.SnapshotRequest != nil && r.cfg.SnapshotRequest.Load() && r.cfg.OnSnapshot != nil
}

// meterWire mirrors costMeter for serialization.
type meterWire struct {
	CoreCycles  int64
	Events      uint64
	Suspensions uint64
	ViolChecked uint64
	AdaptOps    uint64
	CkptWords   int64
	RbackWords  int64
}

// pendingWire mirrors pendingReq for serialization.
type pendingWire struct {
	Req event.Request
	Arr uint64
}

// engineHeader carries the run's scalar pacing state. The component
// states (cores, uncore, memory, synchronization, violations, adaptive
// controller, event queues) follow it in the gob stream as separate
// values, each with its own wire method.
type engineHeader struct {
	Version  int
	Seed     int64
	NumCores int
	Scheme   string

	Global  int64
	Bound   int64
	Retired []bool
	GQ      []pendingWire
	Arrival uint64

	P2PNext    []int64
	P2PPartner []int
	P2PBlocked []bool

	Meter     meterWire
	LastAdapt int64

	NextCkpt  int64
	Rollbacks int
	Wasted    int64
	Replayed  int64
	Ckpts     int
	CkptWords int64

	RNGDraws uint64
	HasCtrl  bool
}

// exportSnapshot serializes the complete run state. It must be called at
// a quiesced checkpoint boundary: all core clocks equal, the manager
// drained, no rollback pending, no replay in progress — exactly the
// state after atBoundary's takeCheckpoint.
func (r *detRun) exportSnapshot() ([]byte, error) {
	hdr := engineHeader{
		Version:  EngineStateVersion,
		Seed:     r.cfg.Seed,
		NumCores: r.m.NumCores(),
		Scheme:   r.cfg.Scheme.Name(),

		Global:  r.global,
		Bound:   r.bound,
		Retired: r.retired,
		Arrival: r.arrival,

		P2PNext:    r.p2pNext,
		P2PPartner: r.p2pPartner,
		P2PBlocked: r.p2pBlocked,

		Meter: meterWire{
			CoreCycles: r.meter.coreCycles, Events: r.meter.events,
			Suspensions: r.meter.suspensions, ViolChecked: r.meter.violChecked,
			AdaptOps: r.meter.adaptOps, CkptWords: r.meter.ckptWords,
			RbackWords: r.meter.rbackWords,
		},
		LastAdapt: r.lastAdapt,

		NextCkpt:  r.nextCkpt,
		Rollbacks: r.rollbacks,
		Wasted:    r.wasted,
		Replayed:  r.replayed,
		Ckpts:     r.ckpts,
		CkptWords: r.ckptWords,

		RNGDraws: r.rng.n,
		HasCtrl:  r.ctrl != nil,
	}
	for _, p := range r.gq {
		hdr.GQ = append(hdr.GQ, pendingWire{Req: p.req, Arr: p.arr})
	}

	var cores []*core.Snapshot
	for _, c := range r.m.cores {
		cores = append(cores, c.Snapshot())
	}
	var inQs [][]event.Msg
	var outs [][]event.Request
	for i := range r.m.inQs {
		inQs = append(inQs, r.m.inQs[i].Snapshot())
		outs = append(outs, r.m.outQs[i].Snapshot())
	}

	// The gob stream is assembled in a pooled buffer (repeated exports of a
	// live run reuse the same grown backing); the returned bytes are copied
	// out because the caller owns them indefinitely.
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer encBufPool.Put(buf)
	enc := gob.NewEncoder(buf)
	for _, step := range []struct {
		name string
		v    any
	}{
		{"header", hdr},
		{"cores", cores},
		{"uncore", r.m.unc.Snapshot()},
		{"memory", r.m.mem},
		{"sync", r.m.sync},
		{"detector", r.m.det},
		{"inqs", inQs},
		{"outqs", outs},
	} {
		if err := enc.Encode(step.v); err != nil {
			return nil, fmt.Errorf("engine: snapshot %s: %w", step.name, err)
		}
	}
	if hdr.HasCtrl {
		if err := enc.Encode(r.ctrl); err != nil {
			return nil, fmt.Errorf("engine: snapshot controller: %w", err)
		}
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

// Resume continues a run exported by a snapshot request. The machine
// must be freshly built from the same spec (same workload, cores, and
// configuration) that produced the snapshot, and cfg must be the same
// run configuration; the continued run then produces Results identical
// to an uninterrupted run (WallClock aside).
func Resume(m *Machine, cfg RunConfig, state []byte) (Results, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Results{}, err
	}

	dec := gob.NewDecoder(bytes.NewReader(state))
	var hdr engineHeader
	if err := dec.Decode(&hdr); err != nil {
		return Results{}, fmt.Errorf("engine: resume header: %w", err)
	}
	if hdr.Version != EngineStateVersion {
		return Results{}, fmt.Errorf("engine: resume: state version %d, this binary speaks %d", hdr.Version, EngineStateVersion)
	}
	if hdr.NumCores != m.NumCores() {
		return Results{}, fmt.Errorf("engine: resume: state has %d cores, machine has %d", hdr.NumCores, m.NumCores())
	}
	if hdr.Seed != cfg.Seed {
		return Results{}, fmt.Errorf("engine: resume: state seed %d, config seed %d", hdr.Seed, cfg.Seed)
	}
	if name := cfg.Scheme.Name(); hdr.Scheme != name {
		return Results{}, fmt.Errorf("engine: resume: state scheme %q, config scheme %q", hdr.Scheme, name)
	}

	var cores []*core.Snapshot
	unc := &uncore.Snapshot{}
	memImg := mem.New()
	sctl := syncctl.New(hdr.NumCores)
	det := violation.NewDetector()
	var inQs [][]event.Msg
	var outs [][]event.Request
	for _, step := range []struct {
		name string
		v    any
	}{
		{"cores", &cores},
		{"uncore", unc},
		{"memory", memImg},
		{"sync", sctl},
		{"detector", det},
		{"inqs", &inQs},
		{"outqs", &outs},
	} {
		if err := dec.Decode(step.v); err != nil {
			return Results{}, fmt.Errorf("engine: resume %s: %w", step.name, err)
		}
	}
	var ctrl *adaptive.Controller
	if hdr.HasCtrl {
		ctrl = &adaptive.Controller{}
		if err := dec.Decode(ctrl); err != nil {
			return Results{}, fmt.Errorf("engine: resume controller: %w", err)
		}
	}
	if len(cores) != m.NumCores() || len(inQs) != m.NumCores() || len(outs) != m.NumCores() {
		return Results{}, fmt.Errorf("engine: resume: component counts do not match %d cores", m.NumCores())
	}
	if cfg.Scheme.Kind == Adaptive && ctrl == nil {
		return Results{}, fmt.Errorf("engine: resume: adaptive scheme but no controller state")
	}

	// Overwrite the fresh machine's components in place (the machine's
	// internal wiring — queues shared with the uncore, the detector fed by
	// it — stays intact because every Restore copies content, not
	// pointers).
	for i, c := range m.cores {
		c.Restore(cores[i])
		m.inQs[i].Restore(inQs[i])
		m.outQs[i].Restore(outs[i])
	}
	m.unc.Restore(unc)
	m.mem.Restore(memImg)
	m.sync.Restore(sctl)
	m.det.Restore(det)

	// Rebuild the run state the way Run does, then overwrite the pacing
	// scalars from the header.
	rng := newCountingSource(cfg.Seed)
	for i := uint64(0); i < hdr.RNGDraws; i++ {
		rng.int63()
	}
	r := &detRun{
		m:         m,
		cfg:       cfg,
		rng:       rng,
		retired:   append([]bool(nil), hdr.Retired...),
		runnable:  make([]uint64, (m.NumCores()+63)/64),
		bound:     hdr.Bound,
		ctrl:      ctrl,
		prog:      newProgressNotifier(cfg),
		interrupt: cfg.Interrupt,

		global:  hdr.Global,
		arrival: hdr.Arrival,

		p2pNext:    hdr.P2PNext,
		p2pPartner: hdr.P2PPartner,
		p2pBlocked: hdr.P2PBlocked,

		lastAdapt: hdr.LastAdapt,
		nextCkpt:  hdr.NextCkpt,
		rollbacks: hdr.Rollbacks,
		wasted:    hdr.Wasted,
		replayed:  hdr.Replayed,
		ckpts:     hdr.Ckpts,
		ckptWords: hdr.CkptWords,

		meter: costMeter{
			coreCycles: hdr.Meter.CoreCycles, events: hdr.Meter.Events,
			suspensions: hdr.Meter.Suspensions, violChecked: hdr.Meter.ViolChecked,
			adaptOps: hdr.Meter.AdaptOps, ckptWords: hdr.Meter.CkptWords,
			rbackWords: hdr.Meter.RbackWords,
		},
	}
	m.unc.SetTracer(cfg.Tracer)
	for _, p := range hdr.GQ {
		r.gq = append(r.gq, pendingReq{req: p.Req, arr: p.Arr})
	}
	if len(hdr.Retired) != m.NumCores() {
		return Results{}, fmt.Errorf("engine: resume: retired mask has %d entries for %d cores", len(hdr.Retired), m.NumCores())
	}

	// The exported run held a checkpoint taken at the export boundary;
	// rebuild it from the (identical) restored live state. The checkpoint
	// was already charged to the meter before export, so this rebuild
	// does not touch the accounting.
	if cfg.CheckpointInterval > 0 {
		r.snap = r.fullSnapshot()
		words := int64(m.mem.AllocatedWords() + m.unc.StateWords())
		for _, cs := range r.snap.cores {
			words += int64(cs.StateWords())
		}
		r.snap.words = words
		if !cfg.DeepCheckpoint {
			m.startTracking()
		}
	}
	r.cfg.Tracer.Addf(r.global, -1, trace.Checkpoint, "resumed from snapshot @%d", r.global)
	r.resync()

	start := time.Now() //lint:allow determinism -- host wall-time feeds Results.HostDuration (a measurement), never simulated state
	if err := r.loop(); err != nil {
		return Results{}, err
	}
	return r.results(time.Since(start)), nil //lint:allow determinism -- host wall-time feeds Results.HostDuration (a measurement), never simulated state
}
