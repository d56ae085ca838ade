package main

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"slacksim"
	"slacksim/internal/core"
	"slacksim/internal/fleet"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75},
		{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The reported p90 needs a run of minJobs jobs.
	if tailPercentile(minJobs) < 90 {
		t.Errorf("minJobs = %d does not leave %d samples beyond p90", minJobs, minTail)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples should read 0")
	}
}

// TestRatioBases pins the base of every ratio the benchmark prints.
func TestRatioBases(t *testing.T) {
	w := newWindow()
	w.job(time.Millisecond, "", nil)
	w.job(time.Millisecond, "", nil)
	w.job(time.Millisecond, knownSynthVerify, errors.New("verify"))
	w.job(time.Millisecond, "", errors.New("boom"))
	w.engine(&slacksim.Results{
		Cycles: 1000, Committed: 4000, HostWorkUnits: 8000, Suspensions: 30, EventsServed: 60,
		Checkpoints: 4, CheckpointWords: 200, Rollbacks: 1, WastedCycles: 250, ReplayCycles: 100,
		BusViolations: 5, MapViolations: 2, MeanBound: 12, Adjustments: 3,
		PerCore: []core.Stats{
			{Cycles: 1000, Committed: 2000, Branches: 100, Mispredicts: 10, BarrierWait: 100, LockRetries: 4},
			{Cycles: 1000, Committed: 2000, Branches: 100, Mispredicts: 30, BarrierWait: 300, LockRetries: 0},
		},
	}, 4*time.Millisecond)
	w.start, w.wall, w.roundLen = time.Unix(0, 0), 2*time.Second, 4
	w.rounds = []time.Time{w.start}
	m := values{}
	w.endToEnd(m)
	w.engineLayers(m)
	for name, want := range map[string]float64{
		"ok_ratio":                      2.0 / 4,          // succeeded / attempted
		"jobs_per_s":                    4.0 / 2,          // jobs per round / median round seconds
		"host_work_per_kinst":           8000.0 / 4,       // work units / thousand committed
		"sim_minst_per_s":               4000.0 / 1e6 / 2, // committed millions per round / median round seconds
		"engine.suspensions_per_kcycle": 30.0 / 2,         // suspensions / thousand core-cycles
		"engine.ckpt_words_per_kcycle":  200.0 / 2,        // checkpoint words / thousand core-cycles
		"engine.rollback_useful_ratio":  1000.0 / 1250,    // cycles / (cycles + wasted)
		"engine.checkpoint_used_ratio":  1.0 / 4,          // rollbacks / checkpoints
		"engine.ns_per_core_cycle":      4e6 / 2000,       // run host ns / core-cycles
		"engine.ns_per_event":           4e6 / 60,         // run host ns / events served
		"violation.bus_rate_pct":        100 * 5.0 / 1000, // bus violations / global cycles
		"violation.map_rate_pct":        100 * 2.0 / 1000, // map violations / global cycles
		"core.cpi":                      2000.0 / 4000,    // core-cycles / committed
		"core.mispredict_ratio":         40.0 / 200,       // mispredicts / branches
		"core.barrier_wait_share":       400.0 / 2000,     // barrier-wait cycles / core-cycles
		"core.lock_retries_per_kinst":   4.0 / 4,          // lock retries / thousand committed
		"adaptive.mean_bound":           12,               // mean over adaptive runs
		"engine.core_cycles":            2000,             // per engine run
	} {
		if got := m[name]; math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if w.byClass[knownSynthVerify] != 1 || w.byClass["unexpected"] != 1 || len(w.unexpected) != 1 {
		t.Errorf("failure classes %v, unexpected %v", w.byClass, w.unexpected)
	}

	perJob, spill := attemptRatios([][]fleet.Attempt{{{Spill: true}, {}}, {{}}, nil})
	if perJob != 3.0/2 || spill != 1.0/3 { // attempts / dispatched jobs; spilled / attempts
		t.Errorf("attemptRatios = %v, %v, want 1.5, 0.333", perJob, spill)
	}
	if ratio(1, 0) != 0 {
		t.Error("a ratio over an empty base should read 0")
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q unit %q breaks the naming rules", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	if _, err := render([]metricDef{{"bad name", "ms"}}, values{}); err == nil {
		t.Error("render accepted a name with a space")
	}
	if _, err := render([]metricDef{{"x", "ms"}}, values{"y": 1}); err == nil || !strings.Contains(err.Error(), "not declared") {
		t.Errorf("render accepted an undeclared metric: %v", err)
	}
	if _, err := render([]metricDef{{"x", "ms"}}, values{"x": math.NaN()}); err == nil {
		t.Error("render accepted NaN")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "a", Start: at(30), End: at(50)},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", Start: at(90), End: at(120)}, // runs past the parent
		{ID: 5, Parent: 2, Name: "c", Start: at(20), End: at(25)},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"root": 100*time.Millisecond - 40*time.Millisecond - 10*time.Millisecond,
		"a":    25*time.Millisecond + 20*time.Millisecond,
		"b":    30 * time.Millisecond,
		"c":    5 * time.Millisecond,
	} {
		if self[name] != want {
			t.Errorf("self(%s) = %v, want %v", name, self[name], want)
		}
	}
}
