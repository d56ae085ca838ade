package engine

import (
	"slacksim/internal/adaptive"
	"slacksim/internal/core"
	"slacksim/internal/event"
	"slacksim/internal/mem"
	"slacksim/internal/syncctl"
	"slacksim/internal/trace"
	"slacksim/internal/uncore"
	"slacksim/internal/violation"
)

// globalSnapshot is a consistent copy of the entire simulation: every core
// thread's state, the manager's state (uncore + queued work), target
// memory, workload synchronization, violation accounting, and the engine's
// own pacing state. It plays the role of the paper's set of fork()ed
// processes forming a global checkpoint (Section 5.1).
//
// Two checkpoint implementations maintain it. The reference path
// (RunConfig.DeepCheckpoint) builds a fresh deep copy at every boundary,
// like re-fork()ing the whole process set. The default incremental path
// exploits that consecutive checkpoints share most of their state — the
// copy-on-write behavior fork() gets from the kernel for free — by keeping
// ONE evolving snapshot and, at each boundary, copying back only state
// dirtied since the previous one (dirty cache sets, dirty status-map
// lines, dirty memory pages, versioned MSHR files). Rollback applies the
// same dirty sets as an undo log. Both paths yield byte-identical Results:
// the cost model's checkpoint words measure the simulated fork cost, which
// is computed from the same state-size formulas either way.
type globalSnapshot struct {
	global  int64
	bound   int64
	retired []bool

	cores []*core.Snapshot
	unc   *uncore.Snapshot
	mem   *mem.Memory
	sync  *syncctl.Controller
	det   *violation.Detector
	ctrl  *adaptive.Controller

	inQs [][]event.Msg
	outs [][]event.Request
	gq   []pendingReq

	lastAdapt int64
	words     int64
}

// takeCheckpoint captures the current simulation state, replacing the
// previous checkpoint (old checkpoints are discarded as the paper does to
// release resources).
//
//slacksim:hotpath
func (r *detRun) takeCheckpoint() {
	incremental := !r.cfg.DeepCheckpoint
	if r.snap == nil || !incremental {
		r.snap = r.fullSnapshot()
		if incremental {
			// From now on every boundary needs only the dirty state.
			r.m.startTracking()
		}
	} else {
		r.syncCheckpoint(r.snap)
	}
	s := r.snap

	// Checkpoint words are computed from the same formulas on both paths
	// (the synced snapshot's lengths equal the live machine's), keeping
	// HostWorkUnits — and therefore Results — identical.
	words := int64(r.m.mem.AllocatedWords() + r.m.unc.StateWords())
	for _, cs := range s.cores {
		words += int64(cs.StateWords())
	}
	s.words = words
	r.ckpts++
	r.ckptWords += words
	r.meter.ckptWords += words
	if r.cfg.MemRecorder != nil {
		// Mark the retire streams so a rollback can truncate exactly the
		// state the engine restore discards.
		r.cfg.MemRecorder.Checkpoint()
	}
	if r.cfg.Tracer.Enabled() {
		r.cfg.Tracer.Addf(r.global, -1, trace.Checkpoint, "#%d words=%d", r.ckpts, words)
	}
}

// fullSnapshot deep-copies everything (the reference path, and the first
// checkpoint of the incremental path) into the machine's pooled snapshot
// graph: every boundary recycles the same backing arrays and component
// snapshots instead of rebuilding the graph from scratch.
func (r *detRun) fullSnapshot() *globalSnapshot {
	s := r.m.snapGraph()
	s.global = r.global
	s.bound = r.bound
	s.retired = append(s.retired[:0], r.retired...)
	s.lastAdapt = r.lastAdapt
	s.gq = append(s.gq[:0], r.gq...)
	r.m.unc.SnapshotInto(s.unc)
	r.m.mem.SnapshotInto(s.mem)
	r.m.sync.SnapshotInto(s.sync)
	r.m.det.CopyInto(s.det)
	if r.ctrl == nil {
		s.ctrl = nil
	} else if s.ctrl == nil {
		s.ctrl = r.ctrl.Snapshot()
	} else {
		s.ctrl.Restore(r.ctrl)
	}
	for i, c := range r.m.cores {
		c.SnapshotInto(s.cores[i])
	}
	for i := range r.m.inQs {
		s.inQs[i] = r.m.inQs[i].SnapshotInto(s.inQs[i])
		s.outs[i] = r.m.outQs[i].SnapshotInto(s.outs[i])
	}
	return s
}

// syncCheckpoint brings the evolving snapshot up to date by copying only
// dirty component state; engine-level slices are small and refreshed into
// reused backing arrays. The synchronization controller and the violation
// detector copy in place, reusing the snapshot's maps — their state is
// tiny and has no single mutation funnel to track, so the whole state is
// the copy set at every boundary.
//
//slacksim:hotpath
func (r *detRun) syncCheckpoint(s *globalSnapshot) {
	s.global = r.global
	s.bound = r.bound
	s.retired = append(s.retired[:0], r.retired...)
	s.lastAdapt = r.lastAdapt
	s.gq = append(s.gq[:0], r.gq...)
	r.m.unc.SyncSnapshot(s.unc)
	r.m.mem.SyncSnapshot(s.mem)
	r.m.sync.SyncSnapshot(s.sync)
	r.m.det.CopyInto(s.det)
	if r.ctrl != nil {
		if s.ctrl == nil {
			s.ctrl = r.ctrl.Snapshot()
		} else {
			s.ctrl.Restore(r.ctrl)
		}
	}
	for i, c := range r.m.cores {
		c.SyncSnapshot(s.cores[i])
	}
	for i := range r.m.inQs {
		s.inQs[i] = r.m.inQs[i].SnapshotInto(s.inQs[i])
		s.outs[i] = r.m.outQs[i].SnapshotInto(s.outs[i])
	}
}

// doRollback restores the last checkpoint and enters cycle-by-cycle replay
// until the next checkpoint boundary to guarantee forward progress.
//
//slacksim:hotpath
func (r *detRun) doRollback() {
	s := r.snap
	r.pendingRollback = false
	r.rollbacks++
	r.wasted += r.global - s.global
	if r.cfg.Tracer.Enabled() {
		r.cfg.Tracer.Addf(r.global, -1, trace.Rollback,
			"#%d to @%d (wasted %d cycles)", r.rollbacks, s.global, r.global-s.global)
	}

	r.global = s.global
	r.bound = s.bound
	copy(r.retired, s.retired)
	r.lastAdapt = s.lastAdapt
	r.gq = append(r.gq[:0], s.gq...)
	if r.cfg.DeepCheckpoint {
		r.m.unc.Restore(s.unc)
		r.m.mem.Restore(s.mem)
	} else {
		// Undo only the state dirtied since the boundary.
		r.m.unc.RestoreDirty(s.unc)
		r.m.mem.RestoreDirty(s.mem)
	}
	r.m.sync.Restore(s.sync)
	r.m.det.Restore(s.det)
	if r.ctrl != nil && s.ctrl != nil {
		r.ctrl.Restore(s.ctrl)
	}
	for i, c := range r.m.cores {
		if r.cfg.DeepCheckpoint {
			c.Restore(s.cores[i])
		} else {
			c.RestoreIncremental(s.cores[i])
		}
		r.m.inQs[i].Restore(s.inQs[i])
		r.m.outQs[i].Restore(s.outs[i])
	}
	r.meter.rbackWords += s.words
	if r.cfg.MemRecorder != nil {
		// Drop everything recorded since the checkpoint; the replay below
		// re-records the window as it re-commits.
		r.cfg.MemRecorder.Rollback()
	}

	// Replay in cycle-by-cycle mode until the boundary we were heading
	// for; the new checkpoint there resumes slack simulation.
	r.replayUntil = r.nextCkpt
	r.resync()
}
