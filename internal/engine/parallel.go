package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"slacksim/internal/adaptive"
	"slacksim/internal/event"
	"slacksim/internal/trace"
	"slacksim/internal/violation"
)

// p2pState is one core thread's Lax-P2P bookkeeping (owned by that
// goroutine; partner clocks are read through the shared atomics).
type p2pState struct {
	rng     *rand.Rand
	next    int64
	partner int
	blocked bool
}

// parRun is the state of one goroutine-parallel run: one goroutine per
// target core plus the simulation manager goroutine, mirroring the paper's
// Pthreads architecture (a simulation of an 8-core target is nine host
// threads). Pacing uses the paper's protocol: each core thread owns a
// local time it may advance while it stays below its max local time; the
// manager recomputes the global time (the minimum local time) and raises
// the max local times according to the scheme.
//
// Memory-model contract (the invariants the pacing protocol relies on).
// Pacing is an eventcount (epoch/atomic) protocol: the fast path is
// lock-free on both sides, and mu/cond serve only as the futex-style slow
// path for cores that have exhausted their spin budget. DESIGN.md §13
// gives the full protocol and its lost-wakeup proof; the invariants are:
//
//   - localTime[i], committed[i] and retired[i] are written only by core
//     i's goroutine and read by the manager and watchdog through the
//     atomics; maxLocal[i] is written only by the manager (and once at
//     startup before the core goroutines exist) and read by core i.
//     All are Go atomics, which are sequentially consistent.
//   - Publication order keeps CC cycle-identical to the deterministic
//     host: a halting core stores retired[i] before its final
//     localTime[i], and recomputeGlobal loads localTime[i] before
//     retired[i], so a halting tick's clock never reaches global; the
//     manager reads the clocks before draining the out-queues, so every
//     request issued below the global time it serves against is drained.
//   - stop is sticky: it transitions false→true exactly once.
//   - A publication (any write that can unpark a core: raising
//     maxLocal[i], or setting stop) is: store the state atomically, bump
//     epoch, then — only if waiters != 0 — Broadcast *while holding mu*.
//   - A core parks by: incrementing waiters, acquiring mu, re-testing
//     stop/maxLocal, and only then blocking in cond.Wait. The seq-cst
//     total order makes the waiters gate safe: if the publisher read
//     waiters == 0, the waiter's increment came later, so the waiter's
//     re-test (later still) sees the published state and never blocks;
//     if the publisher read waiters != 0, its Broadcast runs under mu
//     and therefore cannot land between the waiter's re-test and its
//     Wait (the waiter holds mu across that window).
//   - epoch orders publications for spinning cores: a spin loop may use
//     a stale epoch only to spin longer, never to miss state (it re-reads
//     maxLocal/stop directly each iteration).
//   - parked[i] is guarded by mu; it is only meaningful while core i
//     holds mu or is blocked in cond.Wait. The manager's checkpoint
//     quiesce reads it under mu, which also blocks parked cores from
//     resuming mid-inspection (they must reacquire mu to leave Wait).
//   - global is owned by the manager goroutine; globalNow mirrors it for
//     the watchdog. gqDepth mirrors the pending-request count the same
//     way.
type parRun struct {
	m   *Machine
	cfg RunConfig

	localTime []atomic.Int64
	maxLocal  []atomic.Int64
	committed []atomic.Uint64
	retired   []atomic.Bool
	stop      atomic.Bool

	// epoch counts pacing publications (maxLocal raises and shutdown);
	// waiters counts cores committed to the futex-style slow path. See
	// the memory-model contract above and publish/waitForPacing below.
	epoch   atomic.Uint64
	waiters atomic.Int32

	// interrupt caches cfg.Interrupt so the hot loops poll one pointer
	// instead of copying the whole config (which would race with the
	// test idiom of tweaking r.cfg before goroutines observe it).
	interrupt *atomic.Bool

	// mu/cond park core goroutines that hit their max local time; parked
	// tracks which cores are waiting so the manager can quiesce the
	// machine for a global checkpoint.
	mu     sync.Mutex
	cond   *sync.Cond
	parked []bool // guarded by mu

	// kick wakes the manager when a core produced work or blocked.
	kick chan struct{}

	suspensions atomic.Uint64

	// gq holds pending requests for eager servicing and doubles as the
	// reused collection scratch for conservative servicing, where the
	// pending set itself lives in bands (bucketed by timestamp band, so
	// each service pass touches only the requests at the horizon instead
	// of sorting the whole backlog).
	gq      []pendingReq
	bands   *event.Bands[pendingReq]
	arrival uint64
	meter   costMeter
	global  int64
	prog    *progressNotifier

	// globalNow and gqDepth mirror global and len(gq) for the watchdog;
	// stallErr is published by the watchdog before it force-stops the run.
	globalNow atomic.Int64
	gqDepth   atomic.Int64
	stallErr  atomic.Pointer[StallError]

	ctrl      *adaptive.Controller
	bound     int64
	lastAdapt int64

	nextCkpt  int64
	ckpts     int
	ckptWords int64

	// ckptInit records that the first checkpoint populated the machine's
	// pooled snapshot graph (subsequent incremental boundaries sync only
	// the dirty state into it); drainBuf is reused merge scratch.
	ckptInit bool
	drainBuf []event.Request
}

// gqBandShift sets the banded pending queue's granularity (1<<shift
// cycles per band): small enough that a conservative service pass filters
// at most one boundary band, large enough that the window stays a handful
// of bands under CC pacing.
const gqBandShift = 4

// sortPending orders queued requests by (timestamp, core, arrival), the
// target machine's arbitration order used for conservative servicing.
func sortPending(gq []pendingReq) {
	slices.SortFunc(gq, func(pa, pb pendingReq) int {
		if pa.req.TS != pb.req.TS {
			if pa.req.TS < pb.req.TS {
				return -1
			}
			return 1
		}
		if pa.req.Core != pb.req.Core {
			return pa.req.Core - pb.req.Core
		}
		if pa.arr != pb.arr {
			if pa.arr < pb.arr {
				return -1
			}
			return 1
		}
		return 0
	})
}

// RunParallel simulates the machine under cfg with the goroutine host and
// returns the results. Rollback is only available on the deterministic
// host (the paper likewise evaluates speculation analytically on top of
// measured checkpointing overhead); periodic checkpointing is supported.
func RunParallel(m *Machine, cfg RunConfig) (Results, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Results{}, err
	}
	if cfg.Rollback {
		return Results{}, fmt.Errorf("engine: rollback is only supported on the deterministic host")
	}
	if cfg.Sampling != nil {
		return Results{}, fmt.Errorf("engine: sampling is only supported on the deterministic host")
	}
	n := m.NumCores()
	r := &parRun{
		m:         m,
		cfg:       cfg,
		localTime: make([]atomic.Int64, n),
		maxLocal:  make([]atomic.Int64, n),
		committed: make([]atomic.Uint64, n),
		retired:   make([]atomic.Bool, n),
		parked:    make([]bool, n),
		kick:      make(chan struct{}, 1),
		bound:     cfg.Scheme.Bound,
		prog:      newProgressNotifier(cfg),
		interrupt: cfg.Interrupt,
	}
	r.cond = sync.NewCond(&r.mu)
	if cfg.Scheme.conservative() {
		r.bands = event.NewBands[pendingReq](gqBandShift)
	}
	if cfg.Scheme.Kind == Adaptive {
		ctrl, err := adaptive.New(cfg.Scheme.Adaptive)
		if err != nil {
			return Results{}, err
		}
		ctrl.SetPolicy(cfg.AdaptivePolicy)
		r.ctrl = ctrl
		r.bound = ctrl.Bound()
	}
	if len(cfg.TrackIntervals) > 0 {
		m.Detector().TrackIntervals(cfg.TrackIntervals...)
	}
	if len(cfg.Selected) > 0 {
		m.Detector().Select(cfg.Selected...)
	}
	if cfg.CheckpointInterval > 0 {
		r.nextCkpt = cfg.CheckpointInterval
	}
	// The event ring is written only by the manager goroutine (uncore
	// services and manager-side events); it is read again only after the
	// run's goroutines have joined, so no locking is needed.
	m.unc.SetTracer(cfg.Tracer)
	setRecorders(m, cfg)
	ml := r.maxLocalNow()
	for i := 0; i < n; i++ {
		r.maxLocal[i].Store(ml)
	}

	start := time.Now() //lint:allow determinism -- host wall-time feeds Results.HostDuration (a measurement), never simulated state
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.coreLoop(i)
		}(i)
	}
	var wdDone chan struct{}
	if cfg.StallTimeout > 0 {
		wdDone = make(chan struct{})
		go r.watchdog(wdDone)
	}
	r.managerLoop()
	// The manager already broadcast stop via shutdown(); repeat it here so
	// the exit does not depend on which return path the manager took.
	r.shutdown()
	wg.Wait()
	if wdDone != nil {
		close(wdDone)
	}
	if serr := r.stallErr.Load(); serr != nil {
		// Attach the trace tail now that every goroutine has joined and
		// the ring is quiescent: the last events before the wedge are the
		// first thing a diagnosis needs.
		serr.attachTrace(cfg.Tracer)
		return Results{}, serr
	}
	if r.interruptedNow() {
		// The interrupt raced the natural end of the run; either way the
		// caller asked for cancellation, so the outcome is ErrInterrupted.
		return Results{}, ErrInterrupted
	}
	// Trailing work issued just before the cores stopped.
	r.drainAll()
	r.recomputeGlobal()
	r.serviceAll()
	return r.results(time.Since(start)), nil //lint:allow determinism -- host wall-time feeds Results.HostDuration (a measurement), never simulated state
}

// shutdown raises stop and wakes every parked core. Shutdown is rare, so
// it broadcasts unconditionally (no waiters gate): the store happens
// before the broadcast, and the broadcast is under mu, so a core between
// its park re-test and cond.Wait cannot miss the wakeup (it holds mu
// across that window; see the memory-model contract).
func (r *parRun) shutdown() {
	r.stop.Store(true)
	r.epoch.Add(1)
	r.mu.Lock()
	r.cond.Broadcast()
	r.mu.Unlock()
}

// publish makes a pacing change (new maxLocal values) visible: bump the
// epoch, then wake the slow-path waiters if there are any. The fast path
// — no core parked — is two atomic operations and never touches mu.
//
//slacksim:hotpath
func (r *parRun) publish() {
	r.epoch.Add(1)
	if r.waiters.Load() == 0 {
		// Every core is running or spinning; spinners re-read the pacing
		// atomics directly, and any core that parks after this point
		// re-tests them before blocking (see waitForPacing).
		return
	}
	r.mu.Lock()
	r.cond.Broadcast()
	r.mu.Unlock()
}

// maxLocalNow computes the scheme's current max local time, clamped to
// the simulation horizon (MaxCycles) and the next checkpoint boundary so
// no core thread can ever tick past either wall.
func (r *parRun) maxLocalNow() int64 {
	ml := maxLocalFor(r.cfg.Scheme.Kind, r.global, r.bound, r.cfg.Scheme.Quantum)
	if ml > r.cfg.MaxCycles {
		ml = r.cfg.MaxCycles
	}
	if r.nextCkpt > 0 && ml > r.nextCkpt {
		ml = r.nextCkpt
	}
	return ml
}

// kickManager wakes the manager without blocking the core.
func (r *parRun) kickManager() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// parkHook, when non-nil, is called by a core goroutine after it has
// evaluated its park predicate (stop observed false, clock at the wall)
// and before it blocks in cond.Wait, while holding mu. Liveness tests use
// it to hold a core captive inside exactly the lost-wakeup window and
// prove a broadcast issued under mu cannot land there. Always nil in
// production runs.
var parkHook func(core int)

// parkSpinYields is the spin budget a core burns (as runtime.Gosched
// yields, so the manager gets the CPU even on a single-processor host)
// before falling back to the futex-style park. Pacing raises normally
// land within a few manager iterations, so most wall hits resolve in the
// spin phase without ever touching mu.
const parkSpinYields = 32

// pacingClear reports whether core i may advance again: the run is
// stopping (the episode ends and the outer loop exits) or the wall has
// been raised past the core's clock.
//
//slacksim:hotpath
func (r *parRun) pacingClear(i int, now int64) bool {
	return r.stop.Load() || now < r.maxLocal[i].Load()
}

// waitForPacing is one wall-hit episode for core i: kick the manager,
// spin-then-park until the wall rises or the run stops. The suspension
// counter counts episodes, not wakeups.
func (r *parRun) waitForPacing(i int, now int64) {
	r.suspensions.Add(1)
	r.kickManager()
	for n := 0; n < parkSpinYields; n++ {
		if r.pacingClear(i, now) {
			return
		}
		runtime.Gosched()
	}
	// Futex-style slow path. The waiters increment must precede the mu
	// re-test: a publisher that observed waiters == 0 (and so skipped its
	// broadcast) published strictly before this increment in the seq-cst
	// order, so the re-test below sees its state and never blocks.
	e := r.epoch.Load()
	r.waiters.Add(1)
	r.mu.Lock()
	r.parked[i] = true
	r.kickManager() // the manager may be waiting on parked[i] to quiesce
	for r.epoch.Load() == e && !r.pacingClear(i, now) {
		if parkHook != nil {
			parkHook(i)
		}
		r.cond.Wait()
	}
	// The epoch moved or the wall rose; either way re-test from the core
	// loop (an epoch bump always implies new pacing state or shutdown).
	r.parked[i] = false
	r.mu.Unlock()
	r.waiters.Add(-1)
}

// coreLoop is one core thread: advance while below the max local time,
// park when the wall is hit, exit on halt or stop.
func (r *parRun) coreLoop(i int) {
	c := r.m.cores[i]
	var p2p *p2pState
	// LaxP2P pairing needs a partner to pick; on a single-core machine the
	// gate degenerates to free-running (and Intn(0) would panic).
	if r.cfg.Scheme.Kind == LaxP2P && len(r.localTime) > 1 {
		p2p = &p2pState{
			rng:     rand.New(rand.NewSource(r.cfg.Seed + int64(i)*7919)),
			next:    r.cfg.Scheme.SyncPeriod,
			partner: -1,
		}
	}
	for !r.stop.Load() {
		if r.interruptedNow() {
			// Keep the manager awake until it observes the interrupt and
			// shuts the run down; parked cores are woken by the shutdown
			// broadcast, running ones funnel through here.
			r.kickManager()
			runtime.Gosched()
			continue
		}
		if p2p != nil && !r.p2pGate(i, c.Now(), p2p) {
			// Blocked at a pairwise sync: yield until the partner catches
			// up (polling keeps the pairing protocol wait-free).
			runtime.Gosched()
			continue
		}
		if c.Now() < r.maxLocal[i].Load() {
			before := r.m.outQs[i].Len()
			c.Tick()
			if c.Halted() {
				// Retire before publishing the halting tick's clock: the
				// manager must never fold a retired core's final time into
				// global, as the deterministic host never does.
				r.committed[i].Store(c.Committed())
				r.retired[i].Store(true)
				r.localTime[i].Store(c.Now())
				r.kickManager()
				return
			}
			r.localTime[i].Store(c.Now())
			r.committed[i].Store(c.Committed())
			if r.m.outQs[i].Len() > before {
				r.kickManager()
			}
			continue
		}
		// Suspend until the manager raises the max local time. This is
		// the synchronization cost cycle-by-cycle simulation pays every
		// cycle and unbounded slack never pays.
		r.waitForPacing(i, c.Now())
	}
}

// p2pGate evaluates one core's Lax-P2P synchronization: true when the
// core may advance. At each sync point it picks a random partner and
// waits while it is more than P2PMaxAhead cycles past it. The globally
// slowest core is never gated, so the protocol cannot deadlock.
func (r *parRun) p2pGate(i int, now int64, s *p2pState) bool {
	if now < s.next {
		return true
	}
	if s.partner < 0 {
		p := s.rng.Intn(len(r.localTime) - 1)
		if p >= i {
			p++
		}
		s.partner = p
	}
	if !r.retired[s.partner].Load() &&
		r.localTime[s.partner].Load() < now-r.cfg.Scheme.P2PMaxAhead {
		if !s.blocked {
			s.blocked = true
			r.suspensions.Add(1)
		}
		return false
	}
	s.next += r.cfg.Scheme.SyncPeriod
	s.partner = -1
	s.blocked = false
	return true
}

// managerLoop consolidates OutQ entries into the GQ, services them,
// maintains the global time, paces the cores, runs the adaptive
// controller, and takes checkpoints at boundaries.
func (r *parRun) managerLoop() {
	for {
		<-r.kick
		if r.stop.Load() {
			// The watchdog force-stopped the run while the manager was
			// waiting for work.
			return
		}
		for {
			// Read the clocks before draining: every request issued below
			// the global time read here is already in its out-queue (a
			// core pushes during its tick and publishes its clock after),
			// so conservative service sees the complete set below global.
			// Draining first would let a tick land in between and raise
			// global past a request not yet drained.
			r.recomputeGlobal()
			r.drainAll()
			r.service()
			r.adapt()
			r.prog.maybe(r.global, r.committedNow(), r.progress())
			if r.stop.Load() || r.interruptedNow() || r.doneNow() {
				r.shutdown()
				return
			}
			if r.nextCkpt > 0 && r.global == r.nextCkpt && !r.tryCheckpoint() {
				// Wait for the stragglers to park at the boundary.
			}
			// Raise the max local times: lock-free stores followed by one
			// publication. Spinning cores observe the stores directly; a
			// core headed for the slow path re-tests them before blocking
			// (see the memory-model contract), so no mu is taken here
			// unless a waiter is actually parked.
			ml := r.maxLocalNow()
			changed := false
			for i := range r.maxLocal {
				if r.maxLocal[i].Load() != ml {
					r.maxLocal[i].Store(ml)
					changed = true
				}
			}
			if changed {
				r.publish()
			}
			if r.quietQueues() {
				break
			}
		}
	}
}

func (r *parRun) quietQueues() bool {
	for i := range r.m.outQs {
		if r.m.outQs[i].Len() > 0 {
			return false
		}
	}
	return true
}

// committedNow sums the per-core committed-instruction mirrors.
// interruptedNow reports whether the run's cancellation flag is raised.
// It reads the cached pointer, never r.cfg, so core goroutines can poll
// it without touching the (non-atomic) config struct.
func (r *parRun) interruptedNow() bool {
	return r.interrupt != nil && r.interrupt.Load()
}

func (r *parRun) committedNow() uint64 {
	var n uint64
	for i := range r.committed {
		n += r.committed[i].Load()
	}
	return n
}

func (r *parRun) doneNow() bool {
	if r.global >= r.cfg.MaxCycles {
		return true
	}
	if r.cfg.MaxInstructions > 0 && r.committedNow() >= r.cfg.MaxInstructions {
		return true
	}
	for i := range r.retired {
		if !r.retired[i].Load() {
			return false
		}
	}
	return true
}

// recomputeGlobal sets global to the minimum clock of the active cores.
// Each clock is loaded before its retired flag: a halting core stores
// retired before its final clock (see coreLoop), so a final clock seen
// here always comes with retired already true and is skipped. Testing
// retired first would leave a window in which the core retires and
// publishes its halting tick between the two loads.
func (r *parRun) recomputeGlobal() {
	min := int64(-1)
	for i := range r.localTime {
		t := r.localTime[i].Load()
		if r.retired[i].Load() {
			continue
		}
		if min < 0 || t < min {
			min = t
		}
	}
	if min >= 0 {
		r.global = min
		r.globalNow.Store(min)
	}
}

//slacksim:hotpath
func (r *parRun) drainAll() {
	for i := range r.m.outQs {
		r.drainBuf = r.m.outQs[i].DrainInto(r.drainBuf[:0])
		for _, req := range r.drainBuf {
			r.arrival++
			if r.bands != nil {
				r.bands.Add(req.TS, pendingReq{req: req, arr: r.arrival})
			} else {
				r.gq = append(r.gq, pendingReq{req: req, arr: r.arrival}) //lint:allow hotpathalloc -- gq's backing array is reused across boundaries (truncated to gq[:0] by service); growth is amortized
			}
		}
	}
	r.gqDepth.Store(int64(r.pendingLen()))
}

// pendingLen is the number of unserviced requests (banded or flat).
func (r *parRun) pendingLen() int {
	if r.bands != nil {
		return r.bands.Len()
	}
	return len(r.gq)
}

func (r *parRun) service() {
	if r.cfg.Scheme.conservative() {
		r.serviceConservative(r.global)
		return
	}
	for _, p := range r.gq {
		r.serveOne(p.req)
	}
	r.gq = r.gq[:0]
	r.gqDepth.Store(0)
}

// serviceConservative serves every pending request with TS < safeTime in
// the target's arbitration order. The pending set lives in time bands, so
// the collection touches only the requests at the horizon and the sort
// runs over exactly the batch being served — the far future is never
// scanned. The served sequence is identical to sorting the whole backlog
// and serving the prefix: TakeBelow returns exactly the set {TS <
// safeTime}, and (TS, core, arrival) is a total order.
func (r *parRun) serviceConservative(safeTime int64) {
	r.gq = r.bands.TakeBelow(safeTime, r.gq[:0])
	if len(r.gq) > 0 {
		sortPending(r.gq)
		for _, p := range r.gq {
			r.serveOne(p.req)
		}
		r.gq = r.gq[:0]
	}
	r.gqDepth.Store(int64(r.bands.Len()))
}

func (r *parRun) serviceAll() {
	if r.bands != nil {
		r.serviceConservative(unboundedSentinel)
		return
	}
	// Eager schemes keep a flat arrival-order gq; the trailing flush
	// serves it in arbitration order, as before.
	sortPending(r.gq)
	for _, p := range r.gq {
		r.serveOne(p.req)
	}
	r.gq = r.gq[:0]
	r.gqDepth.Store(0)
}

func (r *parRun) serveOne(req event.Request) {
	r.m.unc.Service(req)
	r.meter.events++
	if r.cfg.MeasureViolations {
		r.meter.violChecked++
	}
}

func (r *parRun) adapt() {
	if r.ctrl == nil {
		return
	}
	if r.global-r.lastAdapt < r.cfg.Scheme.Adaptive.Period {
		return
	}
	r.lastAdapt = r.global
	rate := r.m.det.Rate(r.global)
	before := r.bound
	r.bound = r.ctrl.Update(rate)
	r.meter.adaptOps++
	if r.bound != before && r.cfg.Tracer.Enabled() {
		r.cfg.Tracer.Addf(r.global, -1, trace.BoundChange,
			"rate=%.5f bound %d -> %d", rate, before, r.bound)
	}
}

// tryCheckpoint quiesces the machine at a checkpoint boundary and takes a
// global snapshot (the copies are made for real so the overhead is real;
// without rollback the snapshot is dropped, exactly like the paper's
// Table 2 runs where "checkpoints always succeed"). It returns false when
// some active core has not parked at the boundary yet.
//
//slacksim:hotpath
func (r *parRun) tryCheckpoint() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.parked {
		if r.retired[i].Load() {
			continue
		}
		if !r.parked[i] || r.localTime[i].Load() != r.nextCkpt {
			return false
		}
	}
	// All active cores are parked exactly at the boundary, so their state
	// is stable and the manager can copy it (the paper forks every
	// thread's process here instead). The copies are made for real so the
	// host-side overhead is real; checkpoint *words* (the simulated fork
	// cost charged by the cost model) are computed from the same state
	// sizes on both paths.
	words := int64(r.m.mem.AllocatedWords() + r.m.unc.StateWords())
	s := r.m.snapGraph()
	if r.cfg.DeepCheckpoint || !r.ckptInit {
		r.m.mem.SnapshotInto(s.mem)
		r.m.unc.SnapshotInto(s.unc)
		r.m.sync.SnapshotInto(s.sync)
		for i, c := range r.m.cores {
			c.SnapshotInto(s.cores[i])
			words += int64(s.cores[i].StateWords())
		}
		if !r.cfg.DeepCheckpoint {
			// First incremental checkpoint: subsequent boundaries sync only
			// the dirty state into the pooled snapshot graph. The track
			// flags are published to the parked core goroutines by mu.
			r.m.startTracking()
		}
		r.ckptInit = true
	} else {
		r.m.mem.SyncSnapshot(s.mem)
		r.m.unc.SyncSnapshot(s.unc)
		r.m.sync.SyncSnapshot(s.sync)
		for i, c := range r.m.cores {
			c.SyncSnapshot(s.cores[i])
			words += int64(s.cores[i].StateWords())
		}
	}
	r.ckpts++
	r.ckptWords += words
	r.meter.ckptWords += words
	if r.cfg.MemRecorder != nil {
		// Every core is parked at the boundary, so the retire streams are
		// stable and the marks are consistent with the snapshot.
		r.cfg.MemRecorder.Checkpoint()
	}
	if r.cfg.Tracer.Enabled() {
		r.cfg.Tracer.Addf(r.nextCkpt, -1, trace.Checkpoint, "ckpt %d (%d words)", r.ckpts, words)
	}
	r.nextCkpt += r.cfg.CheckpointInterval
	return true
}

// results assembles the Results for a finished parallel run.
func (r *parRun) results(wall time.Duration) Results {
	m := r.m
	det := m.Detector()
	r.meter.suspensions = r.suspensions.Load()
	var coreCycles int64
	for _, c := range m.cores {
		coreCycles += c.Stats().Cycles
	}
	r.meter.coreCycles = coreCycles
	res := Results{
		Workload: m.WorkloadName(),
		Scheme:   r.cfg.Scheme.Name(),
		Host:     "parallel",

		Cycles:    r.global,
		Committed: m.committed(),

		BusViolations:      det.Count(violation.Bus),
		MapViolations:      det.Count(violation.Map),
		WorkloadViolations: det.Count(violation.Workload),
		ViolationRate:      det.Rate(r.global),
		BusRate:            det.RateOf(violation.Bus, r.global),
		MapRate:            det.RateOf(violation.Map, r.global),
		Intervals:          det.Intervals(r.global),

		HostWorkUnits: r.meter.total(),
		WallClock:     wall,
		Suspensions:   r.meter.suspensions,
		EventsServed:  r.meter.events,

		Checkpoints:     r.ckpts,
		CheckpointWords: r.ckptWords,

		LockAcquires:    m.Sync().Acquires,
		LockContended:   m.Sync().Contended,
		BarrierEpisodes: m.Sync().BarrierEpisodes,
	}
	for _, c := range m.cores {
		res.PerCore = append(res.PerCore, c.Stats())
	}
	if res.Committed > 0 {
		res.CPI = float64(res.Cycles) * float64(m.NumCores()) / float64(res.Committed)
	}
	if r.ctrl != nil {
		res.FinalBound = r.ctrl.Bound()
		res.MeanBound = r.ctrl.MeanBound()
		res.Adjustments = r.ctrl.Adjustments
	}
	return res
}
