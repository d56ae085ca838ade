package engine

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"slacksim/internal/adaptive"
	"slacksim/internal/event"
	"slacksim/internal/sampling"
	"slacksim/internal/trace"
	"slacksim/internal/violation"
)

// RunConfig parameterizes one simulation run.
type RunConfig struct {
	// Scheme is the synchronization scheme.
	Scheme Scheme
	// MaxInstructions stops the run once the machine has committed this
	// many instructions in total (0 = run until every program halts).
	MaxInstructions uint64
	// MaxCycles is a safety cap on global time (default 1<<40).
	MaxCycles int64
	// Seed drives the deterministic host's scheduling.
	Seed int64
	// MaxChunk caps how many cycles one core runs uninterrupted in the
	// deterministic host (models host scheduling granularity; default 16).
	MaxChunk int64
	// HostDriftCap bounds how far any core's clock may run ahead of the
	// slowest core in the deterministic host, independently of the slack
	// bound (default 64). It models host threads that execute at roughly
	// equal speeds with bounded transient drift: below the cap the slack
	// bound is what limits reordering (violations grow with the bound);
	// beyond it the host's own pacing dominates (the violation-rate
	// plateau of the paper's Figure 3).
	HostDriftCap int64
	// CheckpointInterval, when positive, takes a global checkpoint every
	// that many simulated cycles.
	CheckpointInterval int64
	// Rollback enables full speculative slack simulation: on a selected
	// violation the run restores the last checkpoint and replays
	// cycle-by-cycle to the next boundary (forward progress), then resumes
	// the slack scheme.
	Rollback bool
	// DeepCheckpoint selects the reference checkpoint implementation: a
	// full deep copy of all simulation state at every boundary. The
	// default (false) is the incremental copy-on-write path, which keeps
	// one evolving snapshot and copies only state dirtied since the
	// previous boundary. Both paths produce byte-identical Results (the
	// cost model charges the same checkpoint words either way — it models
	// the paper's fork()-based checkpoints, whose cost the host-side
	// incremental optimization does not change); the deep path exists for
	// equivalence testing and as a fallback.
	DeepCheckpoint bool
	// Selected restricts which violation types steer adaptation and
	// trigger rollback (nil = all types).
	Selected []violation.Type
	// TrackIntervals enables Table 3/4 interval statistics for the given
	// interval lengths.
	TrackIntervals []int64
	// MeasureViolations charges the violation-detection overhead to the
	// host cost model (it is implied by Adaptive, Rollback and interval
	// tracking; set it to model an instrumented bounded run, as in the
	// Figure 3 experiments).
	MeasureViolations bool
	// AdaptivePolicy selects the controller's bound-adjustment policy
	// (AIMD by default; AIAD exists for the ablation study).
	AdaptivePolicy adaptive.Policy
	// Tracer, when non-nil, records serviced requests, violations, bound
	// changes, checkpoints and rollbacks for post-run inspection.
	Tracer *trace.Ring
	// MemRecorder, when non-nil, captures every core's architectural
	// retire stream (loads, stores, lock/barrier ops, halts, in commit
	// order) for trace record/replay. Works on both hosts and through
	// checkpoint/rollback cycles.
	MemRecorder MemRecorder
	// Sampling, when non-nil, enables Pac-Sim-style interval sampling:
	// periodic detailed intervals under cycle-accurate CC pacing, the
	// rest fast-forwarded through warmed functional mode (unbounded
	// slack), with an extrapolated cycle estimate and confidence bound in
	// Results.Sampling. Deterministic host only; requires the cc scheme
	// and no checkpointing or interval tracking.
	Sampling *sampling.Plan
	// StallTimeout is the parallel host's liveness watchdog budget: if no
	// core makes forward progress (local time, committed instructions, or
	// retirement) for this much wall-clock time, the run is force-stopped
	// and RunParallel returns a *StallError with a structured dump of the
	// pacing state instead of hanging. 0 selects the default (30s);
	// negative disables the watchdog. The deterministic host is
	// single-threaded and cannot stall, so it ignores this.
	StallTimeout time.Duration
	// OnProgress, when non-nil, is called with monotone Progress snapshots
	// as the run advances (at most once per ProgressEvery global cycles).
	// On the parallel host the callback runs on the manager goroutine and
	// must be fast and non-blocking, or it will slow the pacing protocol.
	OnProgress func(Progress)
	// ProgressEvery is the minimum global-time advance between OnProgress
	// deliveries (default DefaultProgressEvery).
	ProgressEvery int64
	// Interrupt, when non-nil, is an external stop request: once it is
	// set true the run stops at the next pacing step and returns
	// ErrInterrupted. Services use it to cancel in-flight jobs.
	Interrupt *atomic.Bool
	// SnapshotRequest, when non-nil and set true, asks the run to export
	// its complete state at the next checkpoint boundary: the serialized
	// state is delivered through OnSnapshot and the run returns
	// ErrSnapshotted. The run can then be continued elsewhere with
	// Resume. Requires CheckpointInterval > 0 and the deterministic host
	// (the parallel host ignores it).
	SnapshotRequest *atomic.Bool
	// OnSnapshot receives the serialized run state when a snapshot
	// request fires. Both SnapshotRequest and OnSnapshot must be set for
	// export to happen.
	OnSnapshot func(state []byte)
}

func (cfg RunConfig) withDefaults() RunConfig {
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1 << 40
	}
	if cfg.MaxChunk == 0 {
		cfg.MaxChunk = 16
	}
	if cfg.HostDriftCap == 0 {
		cfg.HostDriftCap = 64
	}
	if cfg.Scheme.Kind == Adaptive || cfg.Rollback || len(cfg.TrackIntervals) > 0 {
		cfg.MeasureViolations = true
	}
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = 30 * time.Second
	}
	if cfg.Sampling != nil {
		p := *cfg.Sampling
		p.Normalize()
		cfg.Sampling = &p
	}
	return cfg
}

// Validate reports configuration errors.
func (cfg RunConfig) Validate() error {
	if err := cfg.Scheme.Validate(); err != nil {
		return err
	}
	if cfg.MaxChunk < 0 || cfg.MaxCycles < 0 || cfg.CheckpointInterval < 0 {
		return fmt.Errorf("engine: negative run limits")
	}
	if cfg.Rollback && cfg.CheckpointInterval <= 0 {
		return fmt.Errorf("engine: rollback requires a checkpoint interval")
	}
	if cfg.Sampling != nil {
		if err := cfg.Sampling.Validate(); err != nil {
			return err
		}
		if cfg.Scheme.Kind != CC {
			return fmt.Errorf("engine: sampling requires the cc scheme (detailed intervals are the cycle-accurate reference)")
		}
		if cfg.Rollback || cfg.CheckpointInterval > 0 {
			return fmt.Errorf("engine: sampling cannot be combined with checkpointing")
		}
		if len(cfg.TrackIntervals) > 0 {
			return fmt.Errorf("engine: sampling cannot be combined with interval tracking")
		}
	}
	return nil
}

type pendingReq struct {
	req event.Request
	arr uint64
}

// detRun is the state of one deterministic-host run.
type detRun struct {
	m   *Machine
	cfg RunConfig
	// rng drives the pacing picks; its draw count is part of the exported
	// run state (Resume fast-forwards a fresh source to it).
	rng *countingSource

	ctrl  *adaptive.Controller
	bound int64

	retired []bool
	global  int64

	gq      []pendingReq
	arrival uint64

	// Lax-P2P state: the next pairwise sync point, the currently chosen
	// partner (-1 = none), and whether the core is currently blocked at a
	// sync (for suspension accounting), per core.
	p2pNext    []int64
	p2pPartner []int
	p2pBlocked []bool

	meter costMeter
	prog  *progressNotifier
	// interrupt caches cfg.Interrupt so the per-step poll is one pointer
	// load instead of a value-receiver call that copies the whole config.
	interrupt *atomic.Bool

	lastAdapt int64
	// steps counts pacing steps (one picked core, one chunk each).
	steps int64

	// Pacing bookkeeping, kept current so a step costs O(1) beyond the
	// tick (DESIGN.md §10, "deterministic-host step cost"): live counts
	// active cores; atGlobal counts active cores whose clock equals
	// global; runnable is a core-index bitmask (64 cores a word) of the
	// active cores below ceiling = min(maxLocal, global+HostDriftCap),
	// and nRunnable its population; servedAt is the global time of the
	// last manager service, and gq[:gqSortLen] the requests a skipped
	// conservative service would have sorted.
	live      int
	atGlobal  int
	ceiling   int64
	runnable  []uint64
	nRunnable int
	servedAt  int64
	gqSortLen int

	// Reused scratch buffers (hot-path allocation elimination).
	p2pBuf   []int
	drainBuf []event.Request

	// Interval-sampling cursor (nil unless cfg.Sampling is set).
	samp *sampleState

	// Checkpoint/rollback state.
	nextCkpt        int64
	snap            *globalSnapshot
	replayUntil     int64
	pendingRollback bool
	rollbacks       int
	wasted          int64
	replayed        int64
	ckpts           int
	ckptWords       int64
}

// Run simulates the machine to completion under cfg on the deterministic
// host and returns the results. The machine must be freshly built (a
// machine cannot be reused across runs).
func Run(m *Machine, cfg RunConfig) (Results, error) {
	_, res, err := run(m, cfg)
	return res, err
}

// run is Run, also returning the finished run state, so tests and
// benchmarks can read what Results does not carry (the rng draw count,
// pacing steps).
func run(m *Machine, cfg RunConfig) (*detRun, Results, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, Results{}, err
	}
	r := &detRun{
		m:         m,
		cfg:       cfg,
		rng:       newCountingSource(cfg.Seed),
		retired:   make([]bool, m.NumCores()),
		runnable:  make([]uint64, (m.NumCores()+63)/64),
		bound:     cfg.Scheme.Bound,
		prog:      newProgressNotifier(cfg),
		interrupt: cfg.Interrupt,
	}
	m.unc.SetTracer(cfg.Tracer)
	setRecorders(m, cfg)
	if cfg.Sampling != nil {
		r.samp = newSampleState(*cfg.Sampling)
	}
	if cfg.Scheme.Kind == Adaptive {
		ctrl, err := adaptive.New(cfg.Scheme.Adaptive)
		if err != nil {
			return nil, Results{}, err
		}
		ctrl.SetPolicy(cfg.AdaptivePolicy)
		r.ctrl = ctrl
		r.bound = ctrl.Bound()
	}
	if cfg.Scheme.Kind == LaxP2P {
		r.p2pNext = make([]int64, m.NumCores())
		r.p2pPartner = make([]int, m.NumCores())
		r.p2pBlocked = make([]bool, m.NumCores())
		for i := range r.p2pNext {
			r.p2pNext[i] = cfg.Scheme.SyncPeriod
			r.p2pPartner[i] = -1
		}
	}
	if len(cfg.TrackIntervals) > 0 {
		m.Detector().TrackIntervals(cfg.TrackIntervals...)
	}
	if len(cfg.Selected) > 0 {
		m.Detector().Select(cfg.Selected...)
	}
	if cfg.CheckpointInterval > 0 {
		r.nextCkpt = cfg.CheckpointInterval
		if cfg.Rollback {
			// The initial state is the first recovery point, so a
			// violation before the first boundary can still roll back.
			r.takeCheckpoint()
		}
	}
	r.resync()
	start := time.Now() //lint:allow determinism -- host wall-time feeds Results.HostDuration (a measurement), never simulated state
	if err := r.loop(); err != nil {
		return nil, Results{}, err
	}
	return r, r.results(time.Since(start)), nil //lint:allow determinism -- host wall-time feeds Results.HostDuration (a measurement), never simulated state
}

// MustRun is Run but panics on error.
func MustRun(m *Machine, cfg RunConfig) Results {
	res, err := Run(m, cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// mode returns the effective scheme kind, accounting for cycle-by-cycle
// replay after a rollback.
func (r *detRun) mode() SchemeKind {
	if r.replayUntil > 0 && r.global < r.replayUntil {
		return CC
	}
	if r.samp != nil && !r.samp.detailed {
		// Fast-forward interval: warmed functional mode (unbounded slack;
		// the host drift cap still bounds core spread).
		return Unbounded
	}
	return r.cfg.Scheme.Kind
}

// conservative reports whether the manager must currently service events
// in timestamp order.
func (r *detRun) conservative() bool { return r.mode() == CC }

// maxLocal computes the current max local time shared by all cores
// (every scheme here is symmetric), capped at the next checkpoint
// boundary so a global checkpoint can be taken with all clocks equal.
func (r *detRun) maxLocal() int64 {
	ml := maxLocalFor(r.mode(), r.global, r.bound, r.cfg.Scheme.Quantum)
	if ml > r.cfg.MaxCycles {
		// Clamp to the simulation horizon, mirroring the parallel host, so
		// no core's clock ever passes MaxCycles.
		ml = r.cfg.MaxCycles
	}
	if r.nextCkpt > 0 && ml > r.nextCkpt {
		ml = r.nextCkpt
	}
	return ml
}

func (r *detRun) done() bool {
	if r.global >= r.cfg.MaxCycles {
		return true
	}
	if r.cfg.MaxInstructions > 0 && r.m.committed() >= r.cfg.MaxInstructions {
		return true
	}
	return r.live == 0
}

// resync rebuilds the pacing bookkeeping from scratch after the clocks or
// the retirement mask were overwritten wholesale (run start, rollback,
// resume). It leaves global as it is: only the next step's recompute may
// move it, exactly as when every step recomputed it.
func (r *detRun) resync() {
	r.live, r.atGlobal = 0, 0
	for i, c := range r.m.cores {
		if r.retired[i] {
			continue
		}
		r.live++
		if c.Now() == r.global {
			r.atGlobal++
		}
	}
	r.ceiling = math.MinInt64 // forces the next step to rebuild the runnable set
	r.servedAt = -1
	r.gqSortLen = 0
}

// recomputeGlobal sets global time to the minimum local time of active
// cores (global never decreases except across a rollback restore) and
// recounts the cores sitting at it.
//
//slacksim:hotpath
func (r *detRun) recomputeGlobal() {
	min, at := int64(-1), 0
	for i, c := range r.m.cores {
		if r.retired[i] {
			continue
		}
		switch now := c.Now(); {
		case min < 0 || now < min:
			min, at = now, 1
		case now == min:
			at++
		}
	}
	if min >= 0 {
		r.global = min
	}
	r.atGlobal = at
}

// setCeiling moves the runnable set to a new clock ceiling. The ceiling
// changes only when global, the scheme's wall or the mode moves — at most
// once per global-time advance in the common case — so the rebuild
// amortizes over the steps in between; in those steps only the picked
// core can change membership, and the loop removes it (leave) when it
// reaches the ceiling or retires.
//
//slacksim:hotpath
func (r *detRun) setCeiling(ceiling int64) {
	if ceiling == r.ceiling {
		return
	}
	r.ceiling = ceiling
	clear(r.runnable)
	r.nRunnable = 0
	for i, c := range r.m.cores {
		if !r.retired[i] && c.Now() < ceiling {
			r.runnable[i>>6] |= 1 << uint(i&63)
			r.nRunnable++
		}
	}
}

// leave removes core i from the runnable set.
//
//slacksim:hotpath
func (r *detRun) leave(i int) {
	r.runnable[i>>6] &^= 1 << uint(i&63)
	r.nRunnable--
}

// runnableAt returns the k-th runnable core in core-index order. It
// walks the mask a byte at a time and finishes with a table lookup, so a
// machine of up to eight cores picks without a data-dependent loop.
//
//slacksim:hotpath
func (r *detRun) runnableAt(k int) int {
	for wi, w := range r.runnable {
		for i := wi << 6; w != 0; i, w = i+8, w>>8 {
			b := uint8(w)
			if n := bits.OnesCount8(b); k >= n {
				k -= n
				continue
			}
			return i + int(selectInByte[b][k])
		}
	}
	panic("engine: runnable pick out of range")
}

// selectInByte[b][k] is the position of the k-th set bit of b.
var selectInByte = func() (t [256][8]uint8) {
	for b := range t {
		k := 0
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				t[b][k] = uint8(i)
				k++
			}
		}
	}
	return t
}()

func (r *detRun) loop() error {
	for !r.done() {
		if r.interrupt != nil && r.interrupt.Load() {
			return ErrInterrupted
		}
		ml := r.maxLocal()
		r.setCeiling(min(ml, r.global+r.cfg.HostDriftCap))
		pick := r.nextCore()
		if pick < 0 {
			// Everyone is at the wall: either a checkpoint boundary or an
			// inconsistency (global should always free the slowest core).
			if r.nextCkpt > 0 && r.global == r.nextCkpt {
				if err := r.atBoundary(); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("engine: no runnable core at global=%d maxLocal=%d", r.global, ml)
		}
		r.steps++
		c := r.m.cores[pick]
		wasAtGlobal := c.Now() == r.global
		budget := ml - c.Now()
		chunk := int64(1)
		if r.cfg.MaxChunk > 1 {
			chunk += r.rng.int63n(r.cfg.MaxChunk)
		}
		if chunk > budget {
			chunk = budget
		}
		for k := int64(0); k < chunk; k++ {
			c.Tick()
			r.meter.coreCycles++
		}
		if c.Now() >= ml {
			r.meter.suspensions++
		}
		if c.Halted() {
			r.retired[pick] = true
			r.live--
			r.leave(pick)
		} else if c.Now() >= r.ceiling {
			r.leave(pick)
		}

		r.drain(pick)
		// Every active core is at or above global, and only the picked
		// core moved: global can move only when the last core sitting at
		// it left (ticked away or retired).
		if wasAtGlobal {
			r.atGlobal--
		}
		if r.atGlobal == 0 {
			r.recomputeGlobal()
		}
		// Conservative service serves TS < global, and a request drained
		// since the last service has TS >= global (issued at or after its
		// core's clock, which is never below global), so it serves nothing
		// until global moves. Its one effect is the sort, which eager
		// service observes after a switch out of CC mode: the skip records
		// the prefix the sort would have covered instead.
		if r.conservative() && r.global == r.servedAt {
			r.gqSortLen = len(r.gq)
		} else {
			if err := r.service(); err != nil {
				return err
			}
			r.servedAt = r.global
		}
		if r.prog != nil {
			r.prog.maybe(r.global, r.m.committed(), r.progressCounter())
		}
		if r.samp != nil {
			r.sampleStep()
		}
		if r.pendingRollback {
			// The paper's recipe: roll back as soon as the manager detects
			// a selected violation.
			r.doRollback()
			continue
		}
		r.adapt()
		if r.nextCkpt > 0 && r.global == r.nextCkpt && r.atGlobal == r.live {
			// Every active core sits at the boundary.
			if err := r.atBoundary(); err != nil {
				return err
			}
		}
	}
	// Final drain so trailing requests are reflected in stats.
	r.drainAll()
	r.recomputeGlobal()
	return r.serviceAll()
}

// nextCore picks a uniformly random core among those below both the
// scheme's wall and the host drift cap (the runnable set). Random picks
// make each core's clock a random walk (the ordering jitter that causes
// violations); the drift cap keeps the walk within what a real host's
// roughly-equal thread speeds would allow. It returns -1 when no core can
// run at all. The pick is the k-th runnable core in core-index order for
// a uniform k, so the draws map to the same cores as picking from an
// index-ordered list.
//
//slacksim:hotpath
func (r *detRun) nextCore() int {
	if r.cfg.Scheme.Kind == LaxP2P {
		cleared := r.p2pFilter()
		if len(cleared) == 0 {
			return -1
		}
		return cleared[r.rng.intn(len(cleared))]
	}
	if r.nRunnable == 0 {
		// The slowest active core always sits below global+drift, so this
		// only happens at a scheme wall (checkpoint boundary or a bug).
		return -1
	}
	return r.runnableAt(r.rng.intn(r.nRunnable))
}

// p2pFilter runs the Lax-P2P gate of every runnable core in core-index
// order — the gate draws partners and counts suspensions, so it must run
// for exactly these cores in exactly this order — and returns the cores
// it clears, in core-index order.
//
//slacksim:hotpath
func (r *detRun) p2pFilter() []int {
	cleared := r.p2pBuf[:0]
	for wi, w := range r.runnable {
		for ; w != 0; w &= w - 1 {
			if i := wi<<6 | bits.TrailingZeros64(w); r.p2pClear(i) {
				cleared = append(cleared, i)
			}
		}
	}
	r.p2pBuf = cleared
	return cleared
}

// p2pClear evaluates core i's Lax-P2P gate: away from a sync point it is
// free; at one it picks a random partner (kept until the sync resolves)
// and may proceed only when it is no more than P2PMaxAhead cycles past
// the partner. The globally slowest core is never gated, so the scheme is
// deadlock-free.
func (r *detRun) p2pClear(i int) bool {
	// With a single core there is no partner to pick (Intn(0) would
	// panic); the gate degenerates to free-running, as on the parallel host.
	if r.cfg.Scheme.Kind != LaxP2P || r.m.NumCores() < 2 {
		return true
	}
	c := r.m.cores[i]
	if c.Now() < r.p2pNext[i] {
		return true
	}
	if r.p2pPartner[i] < 0 {
		p := r.rng.intn(r.m.NumCores() - 1)
		if p >= i {
			p++
		}
		r.p2pPartner[i] = p
	}
	p := r.p2pPartner[i]
	if !r.retired[p] && r.m.cores[p].Now() < c.Now()-r.cfg.Scheme.P2PMaxAhead {
		if !r.p2pBlocked[i] {
			r.p2pBlocked[i] = true
			r.meter.suspensions++
		}
		return false
	}
	r.p2pNext[i] += r.cfg.Scheme.SyncPeriod
	r.p2pPartner[i] = -1
	r.p2pBlocked[i] = false
	return true
}

// drain moves requests from core i's OutQ into the manager's global queue
// (GQ), preserving arrival order. One DrainInto into a reused buffer
// replaces the per-item Pop loop (one lock, zero allocations), and an
// empty OutQ — most steps — costs one length check.
//
//slacksim:hotpath
func (r *detRun) drain(i int) {
	if r.m.outQs[i].Len() == 0 {
		return
	}
	r.drainBuf = r.m.outQs[i].DrainInto(r.drainBuf[:0])
	for _, req := range r.drainBuf {
		r.arrival++
		r.gq = append(r.gq, pendingReq{req: req, arr: r.arrival}) //lint:allow hotpathalloc -- gq's backing array is reused across boundaries (truncated to gq[:0] by service); growth is amortized
	}
}

func (r *detRun) drainAll() {
	for i := range r.m.outQs {
		r.drain(i)
	}
}

// service runs the manager: eagerly in slack modes (arrival order), or
// conservatively in CC mode (timestamp order, only events that can no
// longer be preceded).
func (r *detRun) service() error {
	sortLen := r.gqSortLen
	r.gqSortLen = 0
	if r.conservative() {
		return r.serviceConservative(r.global)
	}
	// Requests left over from CC mode are served in the order its last
	// (possibly skipped) sort left them in.
	sortPending(r.gq[:sortLen])
	for _, p := range r.gq {
		r.serveOne(p.req)
	}
	r.gq = r.gq[:0]
	return nil
}

// serviceConservative services queued requests with TS strictly below
// safeTime in (TS, core, arrival) order; later-timestamped requests stay
// queued because a slower core could still issue an earlier one.
func (r *detRun) serviceConservative(safeTime int64) error {
	if len(r.gq) == 0 {
		return nil
	}
	sortPending(r.gq)
	n := 0
	for n < len(r.gq) && r.gq[n].req.TS < safeTime {
		r.serveOne(r.gq[n].req)
		n++
	}
	if n > 0 {
		// Compact in place instead of re-slicing so the backing array's
		// capacity is never abandoned.
		r.gq = r.gq[:copy(r.gq, r.gq[n:])]
	}
	return nil
}

// serviceAll flushes every queued request regardless of safety (used when
// the run is over).
func (r *detRun) serviceAll() error {
	return r.serviceConservative(unboundedSentinel)
}

func (r *detRun) serveOne(req event.Request) {
	before := r.m.det.SelectedCount()
	r.m.unc.Service(req)
	r.meter.events++
	if r.cfg.MeasureViolations {
		r.meter.violChecked++
	}
	if r.cfg.Rollback && r.replayUntil == 0 {
		if r.m.det.SelectedCount() > before {
			r.pendingRollback = true
		}
	}
}

// adapt runs the adaptive controller at its period.
func (r *detRun) adapt() {
	if r.ctrl == nil || r.mode() == CC {
		return
	}
	period := r.cfg.Scheme.Adaptive.Period
	if r.global-r.lastAdapt < period {
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

// atBoundary handles a checkpoint boundary: quiesce the manager, either
// roll back (if a selected violation fired during the elapsed interval)
// or take a fresh global checkpoint, then advance the boundary.
func (r *detRun) atBoundary() error {
	r.drainAll()
	if err := r.service(); err != nil {
		return err
	}
	if r.pendingRollback {
		r.doRollback()
		return nil
	}
	if r.replayUntil > 0 && r.global >= r.replayUntil {
		r.replayed += r.replayUntil - r.snapGlobal()
		r.replayUntil = 0
	}
	r.takeCheckpoint()
	r.nextCkpt += r.cfg.CheckpointInterval
	if r.snapshotRequested() {
		// The run is quiesced and checkpointed: export the state and stop.
		state, err := r.exportSnapshot()
		if err != nil {
			return err
		}
		r.cfg.OnSnapshot(state)
		return ErrSnapshotted
	}
	return nil
}

func (r *detRun) snapGlobal() int64 {
	if r.snap == nil {
		return 0
	}
	return r.snap.global
}
