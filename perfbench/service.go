package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"slacksim"
	"slacksim/client"
	"slacksim/internal/durable"
	"slacksim/internal/fleet"
	"slacksim/internal/service/jobqueue"
	"slacksim/internal/service/resultcache"
	"slacksim/internal/service/server"
	"slacksim/internal/spec"
)

// Service op kinds: a repeat of a warm spec (a cache hit), one of two
// back-to-back submissions of the same fresh spec (the second coalesces
// onto the first or hits its result), or a fresh spec (a miss).
const (
	opHit = iota
	opDup
	opFresh
)

// op is one slot of the service's seeded block of submissions.
type op struct {
	kind int
	warm int // opHit: position within the block (see job)
	slot int // opDup, opFresh: which fresh spec of the block
}

// checkedSpec is a spec with the digest of its result for the cross-host
// identity check: for a warm spec submitted during set-up, the direct
// library run's; for a sampled fresh spec, the service's.
type checkedSpec struct {
	sp     spec.Spec
	digest string
	ref    *slacksim.Results // CC run of the same kernel, cores and seed
}

// daemon is one in-process service instance with durable state, as
// slacksimd and slacksimfleet run with -data.
type daemon struct {
	store   *durable.Store
	journal *durable.Journal
	cache   *durable.ResultCache
}

// jobTrace correlates the spans of one submission across the facade and
// its workers by spec key.
type jobTrace struct {
	job, root, client, dispatch int64     // span ids; client is the open client call
	admitted                    time.Time // last journaled admission
	wait                        time.Duration
}

// serviceBench drives the fleet facade in front of two workers over
// loopback HTTP with closed-loop client callers.
type serviceBench struct {
	tr  *tracer
	cur atomic.Pointer[window] // window engine runs are credited to

	dir     string
	daemons []*daemon
	workers []*server.Server
	facade  *fleet.Facade
	hs      *http.Server
	served  chan error
	cl      *client.Client

	warm      []checkedSpec
	ops       []op // one block
	blocks    int  // blocks per round
	freshBase int64

	mu      sync.Mutex
	traces  map[string]*jobTrace // guarded by mu; by spec key, while traced
	waits   []float64            // guarded by mu; queue wait per traced miss, ns
	jobIDs  []string             // guarded by mu; facade job ids that ran
	samples []checkedSpec        // guarded by mu; fresh specs and service digests, to re-run directly
}

// roundLen spans several blocks, about a second of submissions, so that
// per-round rates are not dominated by single misses.
func (b *serviceBench) roundLen() int { return b.blocks * len(b.ops) }

// callers is one closed-loop client per CPU (nproc).
func (b *serviceBench) callers() int { return runtime.NumCPU() }

// freshSpec is the fresh spec of block blk, slot s: a short scale-1 run
// with a seed no other submission uses.
func (b *serviceBench) freshSpec(blk int64, s int) spec.Spec {
	kernels := []string{"fft", "lu", "barnes", "water"}
	return spec.Spec{Workload: kernels[(int(blk)+s)%len(kernels)], Scale: 1, Cores: 4, Scheme: "s16",
		Seed: b.freshBase + blk*int64(len(b.ops)) + int64(s)}
}

func service(env *env) (bench, error) {
	b := &serviceBench{tr: env.tr, traces: make(map[string]*jobTrace),
		freshBase: 1<<30 + seedOf(env.rng)<<20}
	if err := os.MkdirAll(env.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(env.scratch, "service-")
	if err != nil {
		return nil, err
	}
	b.dir = dir
	if err := b.start(); err != nil {
		b.close()
		return nil, err
	}

	// Warm specs: every kernel under CC, bounded and adaptive slack, run
	// directly (the identity and accuracy references) and then through the
	// service, which leaves them cached.
	kernels, schemes := []string{"fft", "lu", "barnes", "water"}, []string{"cc", "s16", "adaptive"}
	seeds := 2 // scheduling seeds per kernel, to average the slack error
	// One block of submissions: 14 hits, two back-to-back duplicate pairs
	// and two fresh specs, spread out. The layout is fixed, not seeded, so
	// that the overlap of the two callers' misses, which sets how much of
	// the engine work runs in parallel, is the same on every seed.
	b.ops = []op{{kind: opHit}, {kind: opHit}, {kind: opHit}, {kind: opFresh, slot: 0},
		{kind: opHit}, {kind: opHit}, {kind: opDup, slot: 1}, {kind: opDup, slot: 1},
		{kind: opHit}, {kind: opHit}, {kind: opHit}, {kind: opHit}, {kind: opHit}, {kind: opFresh, slot: 2},
		{kind: opHit}, {kind: opHit}, {kind: opDup, slot: 3}, {kind: opDup, slot: 3},
		{kind: opHit}, {kind: opHit}}
	b.blocks = 12 // about a second of submissions
	if env.tiny {
		kernels, seeds, b.blocks = kernels[:1], 1, 1
		b.ops = []op{{kind: opHit}, {kind: opFresh, slot: 0}, {kind: opDup, slot: 1}, {kind: opDup, slot: 1}}
	}
	for i := range b.ops {
		b.ops[i].warm = i
	}
	for n := 0; n < seeds*len(kernels); n++ {
		k, seed := kernels[n%len(kernels)], seedOf(env.rng)
		var cc *slacksim.Results
		for _, s := range schemes {
			sp := spec.Spec{Workload: k, Scale: 1, Cores: 4, Scheme: s, Seed: seed}
			cfg, err := sp.Config()
			if err != nil {
				b.close()
				return nil, err
			}
			res, verr, err := runLibrary(cfg)
			if err = errors.Join(err, verr); err != nil {
				b.close()
				return nil, fmt.Errorf("warm %s: %w", describe(sp), err)
			}
			if s == "cc" {
				cc = res
			}
			b.warm = append(b.warm, checkedSpec{sp: sp, digest: canonical(res), ref: cc})
		}
	}
	ctx := context.Background()
	for _, ws := range b.warm {
		j, err := b.cl.SubmitWait(ctx, ws.sp, 5*time.Millisecond)
		if err != nil {
			b.close()
			return nil, fmt.Errorf("warm submit %s: %w", describe(ws.sp), err)
		}
		if j.State != "done" || j.Result == nil || canonical(j.Result) != ws.digest {
			b.close()
			return nil, fmt.Errorf("warm %s: service result (state %s) differs from the direct run", describe(ws.sp), j.State)
		}
	}
	return b, nil
}

// start brings up two workers and the facade, each with a store and an
// fsynced journal, and serves the facade on a loopback port.
func (b *serviceBench) start() error {
	open := func(name string) (*daemon, error) {
		d := &daemon{}
		var err error
		if d.store, err = durable.OpenStore(filepath.Join(b.dir, name, "store"), durable.StoreOptions{}); err != nil {
			return nil, err
		}
		if d.journal, _, err = durable.OpenJournal(filepath.Join(b.dir, name, "journal.wal")); err != nil {
			d.store.Close()
			return nil, err
		}
		b.daemons = append(b.daemons, d)
		return d, nil
	}
	f, err := open("facade")
	if err != nil {
		return err
	}
	f.cache = durable.NewResultCache(f.store, 512)
	b.facade = fleet.NewFacade(fleet.FacadeConfig{
		Server: server.Config{QueueDepth: 256, Workers: 64, CacheSize: 512, StallTimeout: -1,
			Cache: &timedCache{b: b, inner: f.cache}, Journal: &timedJournal{b: b, inner: f.journal}},
	})
	for i := 1; i <= 2; i++ {
		d, err := open(fmt.Sprintf("worker%d", i))
		if err != nil {
			return err
		}
		d.cache = durable.NewResultCache(d.store, 128)
		w := server.New(server.Config{QueueDepth: 64, CacheSize: 128, Runner: b.runner,
			Cache: &timedCache{b: b, inner: d.cache, worker: true}, Journal: &timedJournal{b: b, inner: d.journal, worker: true}})
		b.workers = append(b.workers, w)
		id := fmt.Sprintf("w%d", i)
		b.facade.Registry().Add(id, "inproc://"+id, &timedTransport{b: b, inner: fleet.InprocTransport(w.Handler())})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.hs = &http.Server{Handler: b.facade.Handler()}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.cl = client.New("http://" + ln.Addr().String())
	return b.cl.Healthz(context.Background(), client.WithTimeout(5*time.Second))
}

// close drains the facade and workers, closes durable state and removes
// it. It is safe on a partly started bench.
func (b *serviceBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if b.facade != nil {
		errs = append(errs, b.facade.Drain(ctx))
	}
	if b.hs != nil {
		errs = append(errs, b.hs.Shutdown(ctx))
		if err := <-b.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	for _, w := range b.workers {
		errs = append(errs, w.Drain(ctx))
	}
	for _, d := range b.daemons {
		errs = append(errs, d.journal.Close(), d.store.Close())
	}
	if b.dir != "" {
		errs = append(errs, os.RemoveAll(b.dir))
	}
	return errors.Join(errs...)
}

func (b *serviceBench) job(w *window, i int64) {
	o := b.ops[i%int64(len(b.ops))]
	blk := i / int64(len(b.ops))
	var sp spec.Spec
	warm := (o.warm + int(blk)*len(b.ops)) % len(b.warm)
	switch o.kind {
	case opHit:
		sp = b.warm[warm].sp
	default:
		sp = b.freshSpec(blk, o.slot)
	}
	ctx := context.Background()

	root := b.tr.begin(spanJob, i, 0)
	var key string
	if root.t != nil {
		s := b.tr.begin(spanKey, i, root.id)
		key = sp.Key()
		s.end()
		b.track(key, &jobTrace{job: i, root: root.id})
	}
	start := time.Now()
	s := b.clientCall(spanSubmit, key, i, root.id)
	j, err := b.cl.Submit(ctx, sp)
	b.endClientCall(s, key, i)
	if err == nil && !j.Terminal() {
		if key != "" {
			b.mu.Lock()
			b.jobIDs = append(b.jobIDs, j.ID)
			b.mu.Unlock()
		}
		s = b.clientCall(spanEvents, key, i, root.id)
		j, err = b.await(ctx, j.ID)
		b.endClientCall(s, key, i)
	}
	lat := time.Since(start)
	root.end()
	if key != "" {
		b.untrack(key, i)
	}

	if err == nil && (j.State != "done" || j.Result == nil) {
		err = fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
	}
	if err != nil {
		w.job(lat, "", fmt.Errorf("%s: %w", describe(sp), err))
		return
	}
	d := canonical(j.Result)
	switch o.kind {
	case opHit:
		ws := b.warm[warm]
		if d != ws.digest {
			w.job(lat, "", fmt.Errorf("%s: service result differs from the direct run", describe(sp)))
			return
		}
		if sp.Scheme != "cc" {
			w.cycleError(j.Result, ws.ref)
		}
	case opFresh:
		b.mu.Lock()
		if len(b.samples) < 16 && blk%4 == 0 {
			b.samples = append(b.samples, checkedSpec{sp: sp, digest: d})
		}
		b.mu.Unlock()
	}
	w.job(lat, "", nil)
}

// await follows the job's event stream to its terminal event.
func (b *serviceBench) await(ctx context.Context, id string) (*client.Job, error) {
	var out *client.Job
	err := b.cl.Events(ctx, id, func(ev client.Event) error {
		if ev.Name == "progress" {
			return nil
		}
		var j client.Job
		if err := json.Unmarshal(ev.Data, &j); err != nil {
			return fmt.Errorf("terminal event %s: %w", ev.Name, err)
		}
		out = &j
		return io.EOF
	})
	if err == nil && out == nil {
		err = fmt.Errorf("event stream of %s ended without a terminal event", id)
	}
	return out, err
}

// finish re-runs the sampled fresh specs directly and checks that the
// service returned the same results, and that no journal write failed.
func (b *serviceBench) finish(w *window) {
	b.mu.Lock()
	samples := b.samples
	b.samples = nil
	b.mu.Unlock()
	for _, smp := range samples {
		sp := smp.sp
		cfg, err := sp.Config()
		if err != nil {
			w.violation("%s: %v", describe(sp), err)
			continue
		}
		res, verr, err := runLibrary(cfg)
		if err = errors.Join(err, verr); err != nil {
			w.violation("%s: direct run: %v", describe(sp), err)
			continue
		}
		if canonical(res) != smp.digest {
			w.violation("%s: service result differs from the direct run", describe(sp))
		}
	}
	for _, d := range b.daemons {
		if err := d.journal.Err(); err != nil {
			w.violation("journal: %v", err)
		}
	}
}

// statsz reads the facade's cache hits, misses and coalesced submissions.
func (b *serviceBench) statsz() (hits, misses, coalesced float64, err error) {
	st, err := b.cl.Statsz(context.Background())
	if err != nil {
		return 0, 0, 0, err
	}
	cache, _ := st["cache"].(map[string]any)
	hits, _ = cache["hits"].(float64)
	misses, _ = cache["misses"].(float64)
	coalesced, _ = st["coalesced"].(float64)
	return hits, misses, coalesced, nil
}

// layers computes the service per-layer metrics of a traced window from
// the facade's counters since before, the correlated queue waits and the
// coordinator's attempts.
func (b *serviceBench) layers(m values, before [3]float64) error {
	hits, misses, coalesced, err := b.statsz()
	if err != nil {
		return err
	}
	m["server.hit_ratio"] = ratio(hits-before[0], hits-before[0]+misses-before[1])
	m["server.coalesced"] = coalesced - before[2]
	b.mu.Lock()
	waits, ids := b.waits, b.jobIDs
	b.waits, b.jobIDs = nil, nil
	b.mu.Unlock()
	m["jobqueue.wait_ms_p50"] = ms(percentile(waits, 50))
	m["jobqueue.wait_ms_p90"] = ms(percentile(waits, 90))
	histories := make([][]fleet.Attempt, len(ids))
	for i, id := range ids {
		histories[i] = b.facade.Coordinator().Attempts(id)
	}
	m["fleet.attempts_per_job"], m["fleet.spill_ratio"] = attemptRatios(histories)
	var wal float64
	for _, d := range b.daemons {
		wal += float64(d.cache.StoreStats().WALBytes)
	}
	m["durable.wal_bytes"] = wal
	return nil
}

// attemptRatios returns dispatch attempts per dispatched job and the
// share of attempts that load-aware spill routed away from the affinity
// worker. A job without attempts was never dispatched and is not counted.
func attemptRatios(histories [][]fleet.Attempt) (perJob, spill float64) {
	var attempts, spills, jobs float64
	for _, h := range histories {
		if len(h) > 0 {
			jobs++
		}
		for _, a := range h {
			attempts++
			if a.Spill {
				spills++
			}
		}
	}
	return ratio(attempts, jobs), ratio(spills, attempts)
}

// track starts correlating layer calls for key with bench job t.job; an
// identical submission already in flight keeps the key.
func (b *serviceBench) track(key string, t *jobTrace) {
	b.mu.Lock()
	if _, ok := b.traces[key]; !ok {
		b.traces[key] = t
	}
	b.mu.Unlock()
}

// clientCall begins a client span for key's job and makes it the parent
// of the facade-side calls and dispatches made while it is open.
func (b *serviceBench) clientCall(name, key string, job, root int64) open {
	s := b.tr.begin(name, job, root)
	b.setClient(key, job, s.id)
	return s
}

func (b *serviceBench) endClientCall(s open, key string, job int64) {
	s.end()
	b.setClient(key, job, 0)
}

func (b *serviceBench) setClient(key string, job, id int64) {
	if key == "" {
		return
	}
	b.mu.Lock()
	if t := b.traces[key]; t != nil && t.job == job {
		t.client = id
	}
	b.mu.Unlock()
}

func (b *serviceBench) untrack(key string, job int64) {
	b.mu.Lock()
	if t := b.traces[key]; t != nil && t.job == job {
		delete(b.traces, key)
		if t.dispatch != 0 {
			b.waits = append(b.waits, float64(t.wait))
		}
	}
	b.mu.Unlock()
}

// layerCall is a decorator's view of one traced call: the span to end,
// or an inert one when tracing is off or the key belongs to no job.
type layerCall struct {
	b      *serviceBench
	span   open
	t      *jobTrace
	worker bool
}

// enter begins a span named name for a call keyed by key. A worker-side
// call is a child of the dispatch; a facade-side call or dispatch is a
// child of the client call open when it ends (the submission or the wait
// on events), else of the job. For a runner or dispatch it also closes
// the queue wait since the last journaled admission; a journal call opens
// one.
func (b *serviceBench) enter(name, key string, worker bool) layerCall {
	if !b.tr.on.Load() {
		return layerCall{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.traces[key]
	if t == nil {
		return layerCall{}
	}
	parent := t.root
	if worker && t.dispatch != 0 {
		parent = t.dispatch
	}
	c := layerCall{b: b, span: b.tr.begin(name, t.job, parent), t: t, worker: worker}
	switch name {
	case spanDispatch:
		t.dispatch = c.span.id
		fallthrough
	case spanRunner:
		if !t.admitted.IsZero() {
			if d := c.span.at.Sub(t.admitted); d > 0 {
				t.wait += d
			}
			t.admitted = time.Time{}
		}
	case spanJournal:
		t.admitted = c.span.at
	}
	return c
}

func (c layerCall) end() {
	if c.t != nil && !c.worker {
		c.b.mu.Lock()
		if c.t.client != 0 {
			c.span.par = c.t.client
		}
		c.b.mu.Unlock()
	}
	c.span.end()
}

// runner is the workers' Runner: server.RealRunner, timed, crediting every
// finished engine run to the current window. Its host time includes the
// runner's New and Verify, which have no seam of their own.
func (b *serviceBench) runner(rc server.RunContext) (*slacksim.Results, error) {
	c := b.enter(spanRunner, keyIfTracing(b.tr, rc.Spec), true)
	start := time.Now()
	res, err := server.RealRunner(rc)
	took := time.Since(start)
	c.end()
	if err == nil {
		if w := b.cur.Load(); w != nil {
			w.engine(res, took)
		}
	}
	return res, err
}

func keyIfTracing(tr *tracer, sp spec.Spec) string {
	if !tr.on.Load() {
		return ""
	}
	return sp.Key()
}

// timedCache wraps a durable.ResultCache as the server's result cache.
type timedCache struct {
	b      *serviceBench
	inner  *durable.ResultCache
	worker bool
}

var _ resultcache.Interface[*slacksim.Results] = (*timedCache)(nil)

func (c *timedCache) Get(key string) (*slacksim.Results, bool) {
	lc := c.b.enter(spanCacheGet, key, c.worker)
	defer lc.end()
	return c.inner.Get(key)
}

func (c *timedCache) Put(key string, res *slacksim.Results) {
	lc := c.b.enter(spanCachePut, key, c.worker)
	defer lc.end()
	c.inner.Put(key, res)
}

func (c *timedCache) Len() int                       { return c.inner.Len() }
func (c *timedCache) Stats() resultcache.Stats       { return c.inner.Stats() }
func (c *timedCache) StoreStats() durable.StoreStats { return c.inner.StoreStats() }

// timedJournal wraps a durable.Journal as the server's journal.
type timedJournal struct {
	b      *serviceBench
	inner  *durable.Journal
	worker bool
}

var _ server.Journal = (*timedJournal)(nil)

func (j *timedJournal) JobSubmitted(id, key string, sp spec.Spec) {
	lc := j.b.enter(spanJournal, key, j.worker)
	defer lc.end()
	j.inner.JobSubmitted(id, key, sp)
}

func (j *timedJournal) JobRunning(id string) { j.inner.JobRunning(id) }

func (j *timedJournal) JobFinished(id string, state jobqueue.State, errMsg string) {
	j.inner.JobFinished(id, state, errMsg)
}

// timedTransport wraps fleet.InprocTransport as a worker's transport.
type timedTransport struct {
	b     *serviceBench
	inner fleet.Transport
}

var _ fleet.Transport = (*timedTransport)(nil)

func (t *timedTransport) Run(ctx context.Context, sp spec.Spec) (*slacksim.Results, error) {
	lc := t.b.enter(spanDispatch, keyIfTracing(t.b.tr, sp), false)
	defer lc.end()
	return t.inner.Run(ctx, sp)
}

func (t *timedTransport) Healthz(ctx context.Context) error { return t.inner.Healthz(ctx) }
func (t *timedTransport) Resume(ctx context.Context, snapshot []byte) (*slacksim.Results, error) {
	return t.inner.Resume(ctx, snapshot)
}
func (t *timedTransport) Evacuate(ctx context.Context) error { return t.inner.Evacuate(ctx) }
func (t *timedTransport) Load(ctx context.Context) (fleet.Load, error) {
	return t.inner.Load(ctx)
}
