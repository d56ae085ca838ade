package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"slacksim"
)

// Failure classes. A failure of a known class counts in failed and
// ok_ratio; any other failure, or a wrong result, also makes the run
// incorrect.
const (
	knownSynthVerify = "known-defect-1:synth-consumer-sum"
)

// window accumulates one measured stretch of jobs: per-job outcomes and
// the counters of every engine run that finished inside it. All methods
// are safe for concurrent use.
type window struct {
	mu       sync.Mutex
	start    time.Time
	wall     time.Duration
	roundLen int         // jobs per round
	rounds   []time.Time // when each round's first job was claimed
	mem0     runtime.MemStats
	mem1     runtime.MemStats

	lat        []float64 // job latencies, ns
	attempted  int
	failed     int
	byClass    map[string]int
	unexpected []string // failures and check violations outside the known defects

	eng engineTotals

	cycleErrSum float64
	cycleErrN   int
}

// engineTotals sums the counters of engine runs.
type engineTotals struct {
	runs         int
	hostNs       float64 // host time of the runs, measured around the call
	committed    float64
	work         float64
	cycles       float64 // global simulated cycles
	coreCycles   float64 // summed over cores
	events       float64
	suspensions  float64
	checkpoints  float64
	ckptWords    float64
	rollbacks    float64
	wasted       float64
	replay       float64
	busViol      float64
	mapViol      float64
	adaptiveRuns int
	meanBound    float64
	adjustments  float64
	branches     float64
	mispredicts  float64
	barrierWait  float64
	lockRetries  float64
}

func newWindow() *window { return &window{byClass: make(map[string]int)} }

// begin marks the start of measurement.
func (w *window) begin() {
	runtime.ReadMemStats(&w.mem0)
	w.start = time.Now()
}

// close marks the end of measurement.
func (w *window) close() {
	w.wall = time.Since(w.start)
	runtime.ReadMemStats(&w.mem1)
}

// job records one finished job. class is "" for success.
func (w *window) job(lat time.Duration, class string, detail error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.attempted++
	w.lat = append(w.lat, float64(lat))
	if class == "" && detail == nil {
		return
	}
	w.failed++
	if class == "" {
		class = "unexpected"
		w.unexpected = append(w.unexpected, detail.Error())
	}
	w.byClass[class]++
}

// violation records a correctness-check failure that is not a job failure
// of its own (a mismatch found after the job was counted).
func (w *window) violation(format string, args ...any) {
	w.mu.Lock()
	w.unexpected = append(w.unexpected, fmt.Sprintf(format, args...))
	w.mu.Unlock()
}

func (w *window) cycleError(res, gold *slacksim.Results) {
	w.mu.Lock()
	w.cycleErrSum += res.CycleErrorVs(*gold)
	w.cycleErrN++
	w.mu.Unlock()
}

// engine adds one finished engine run's counters and its host time.
func (w *window) engine(r *slacksim.Results, host time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e := &w.eng
	e.runs++
	e.hostNs += float64(host)
	e.committed += float64(r.Committed)
	e.work += r.HostWorkUnits
	e.cycles += float64(r.Cycles)
	e.events += float64(r.EventsServed)
	e.suspensions += float64(r.Suspensions)
	e.checkpoints += float64(r.Checkpoints)
	e.ckptWords += float64(r.CheckpointWords)
	e.rollbacks += float64(r.Rollbacks)
	e.wasted += float64(r.WastedCycles)
	e.replay += float64(r.ReplayCycles)
	e.busViol += float64(r.BusViolations)
	e.mapViol += float64(r.MapViolations)
	if r.MeanBound > 0 {
		e.adaptiveRuns++
		e.meanBound += r.MeanBound
		e.adjustments += float64(r.Adjustments)
	}
	for _, c := range r.PerCore {
		e.coreCycles += float64(c.Cycles)
		e.branches += float64(c.Branches)
		e.mispredicts += float64(c.Mispredicts)
		e.barrierWait += float64(c.BarrierWait)
		e.lockRetries += float64(c.LockRetries)
	}
}

// medianRound is the median wall time of the window's rounds, each from
// the claim of its first job to the claim of the next round's.
func (w *window) medianRound() time.Duration {
	var d []float64
	for i, t := range w.rounds {
		end := w.start.Add(w.wall)
		if i+1 < len(w.rounds) {
			end = w.rounds[i+1]
		}
		d = append(d, float64(end.Sub(t)))
	}
	return time.Duration(percentile(d, 50))
}

// endToEnd computes the user-visible metrics of an untraced window. Rates
// are per median round, so a transient stall of the host moves them less
// than a mean over the window would.
func (w *window) endToEnd(m values) {
	w.mu.Lock()
	defer w.mu.Unlock()
	round := w.medianRound().Seconds()
	m["job_ms_p50"] = ms(percentile(w.lat, 50))
	m["job_ms_p90"] = ms(percentile(w.lat, 90))
	m["jobs_per_s"] = ratio(float64(w.roundLen), round)
	m["sim_minst_per_s"] = ratio(w.eng.committed/1e6/float64(len(w.rounds)), round)
	m["host_work_per_kinst"] = ratio(w.eng.work, w.eng.committed/1000)
	m["cycle_error_pct"] = ratio(w.cycleErrSum, float64(w.cycleErrN))
	m["ok_ratio"] = ratio(float64(w.attempted-w.failed), float64(w.attempted))
}

// engineLayers computes the per-layer metrics read from engine Results.
func (w *window) engineLayers(m values) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e := w.eng
	runs := float64(e.runs)
	m["engine.runs"] = runs
	m["engine.ns_per_core_cycle"] = ratio(e.hostNs, e.coreCycles)
	m["engine.ns_per_event"] = ratio(e.hostNs, e.events)
	m["engine.core_cycles"] = ratio(e.coreCycles, runs)
	m["engine.events_served"] = ratio(e.events, runs)
	m["engine.suspensions"] = ratio(e.suspensions, runs)
	m["engine.suspensions_per_kcycle"] = ratio(e.suspensions, e.coreCycles/1000)
	m["engine.host_work_units"] = ratio(e.work, runs)
	m["engine.checkpoints"] = ratio(e.checkpoints, runs)
	m["engine.checkpoint_words"] = ratio(e.ckptWords, runs)
	m["engine.ckpt_words_per_kcycle"] = ratio(e.ckptWords, e.coreCycles/1000)
	m["engine.rollbacks"] = ratio(e.rollbacks, runs)
	m["engine.wasted_cycles"] = ratio(e.wasted, runs)
	m["engine.replay_cycles"] = ratio(e.replay, runs)
	m["engine.rollback_useful_ratio"] = ratio(e.cycles, e.cycles+e.wasted)
	m["engine.checkpoint_used_ratio"] = ratio(e.rollbacks, e.checkpoints)
	m["violation.bus_rate_pct"] = 100 * ratio(e.busViol, e.cycles)
	m["violation.map_rate_pct"] = 100 * ratio(e.mapViol, e.cycles)
	m["adaptive.mean_bound"] = ratio(e.meanBound, float64(e.adaptiveRuns))
	m["adaptive.adjustments"] = ratio(e.adjustments, float64(e.adaptiveRuns))
	m["core.cpi"] = ratio(e.coreCycles, e.committed)
	m["core.mispredict_ratio"] = ratio(e.mispredicts, e.branches)
	m["core.barrier_wait_share"] = ratio(e.barrierWait, e.coreCycles)
	m["core.lock_retries_per_kinst"] = ratio(e.lockRetries, e.committed/1000)
}

// runtimeLayers computes allocation and GC metrics from the window's
// runtime.MemStats deltas.
func (w *window) runtimeLayers(m values) {
	jobs := float64(w.attempted)
	m["slacksim.allocs_per_job"] = ratio(float64(w.mem1.Mallocs-w.mem0.Mallocs), jobs)
	m["slacksim.alloc_mb_per_job"] = ratio(float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc)/(1<<20), jobs)
	m["runtime.gc_cycles"] = float64(w.mem1.NumGC - w.mem0.NumGC)
	m["runtime.gc_pause_ms"] = ms(float64(w.mem1.PauseTotalNs - w.mem0.PauseTotalNs))
}
