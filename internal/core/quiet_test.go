package core_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"slacksim/internal/adaptive"
	"slacksim/internal/core"
	"slacksim/internal/engine"
	"slacksim/internal/synth"
	"slacksim/internal/workload"
)

// TestQuietTicksChangeOnlyClockAndWaitCounters drives whole engine runs
// in which every tick the quiet fast path would take runs the full
// pipeline instead, and checks that the full cycle changed the core only
// by the quiet tick's predicted delta (clock, Cycles, and the lock or
// barrier wait counter), left its InQ alone and did not touch the
// synchronization controller. The grid covers lock, barrier and
// sharing-heavy kernels under cc, s16, su and adaptive, checkpointing
// with rollback through both restore paths under the slack schemes that
// roll back, and parallel-host CC runs. It asserts that quiet ticks of
// every kind occurred.
func TestQuietTicksChangeOnlyClockAndWaitCounters(t *testing.T) {
	var (
		mu      sync.Mutex
		failure error
		counts  = map[string]int{}
		stop    atomic.Bool
	)
	check := func(shared bool) {
		core.CheckQuietTicks(shared, func(c *core.Core, kind string, err error) {
			mu.Lock()
			defer mu.Unlock()
			counts[kind]++
			if err != nil && failure == nil {
				failure = err
				stop.Store(true)
			}
		})
	}
	t.Cleanup(func() { core.CheckQuietTicks(false, nil) })

	workloads := []struct {
		name string
		wl   func() (engine.Workload, error)
	}{
		{"fft", func() (engine.Workload, error) { return workload.NewFFT(64), nil }},
		{"barnes", func() (engine.Workload, error) { return workload.NewBarnes(32, 2), nil }},
		{"water", func() (engine.Workload, error) { return workload.NewWater(16, 2), nil }},
		{"synth-migratory", func() (engine.Workload, error) {
			return synth.New(synth.Config{Pattern: synth.PatternMigratory, Ops: 16, Phases: 2, Seed: 1})
		}},
		{"synth-zipf", func() (engine.Workload, error) {
			return synth.New(synth.Config{Pattern: synth.PatternZipf, Ops: 48, Phases: 3, Seed: 1})
		}},
	}
	schemes := []struct {
		name string
		s    engine.Scheme
	}{
		{"cc", engine.CycleByCycle()},
		{"s16", engine.BoundedSlack(16)},
		{"su", engine.UnboundedSlack()},
		{"adaptive", engine.AdaptiveSlack(adaptive.DefaultConfig())},
	}
	ckpts := []struct {
		name     string
		interval int64
		rollback bool
		deep     bool
	}{
		{"plain", 0, false, false},
		{"rollback", 500, true, false},
		{"rollback-deep", 500, true, true},
	}
	// Rollback runs only where violations occur: the slack schemes.
	rolls := func(scheme string) bool { return scheme == "s16" || scheme == "adaptive" }
	var rollbacks int
	run := func(name string, wl func() (engine.Workload, error), cfg engine.RunConfig, parallel bool) {
		t.Helper()
		w, err := wl()
		if err != nil {
			t.Fatal(err)
		}
		m, err := engine.NewMachine(engine.MachineConfig{NumCores: 4}, w)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed, cfg.Interrupt = 5, &stop
		var res engine.Results
		if parallel {
			res, err = engine.RunParallel(m, cfg)
		} else {
			res, err = engine.Run(m, cfg)
		}
		if failure != nil {
			t.Fatalf("%s: %v", name, failure)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rollbacks += res.Rollbacks
	}

	// Under -race the deterministic host runs every fifth cell of the
	// grid (the race detector's business is the parallel host).
	stride := 1
	if raceEnabled {
		stride = 5
	}
	cell := 0
	check(true)
	for _, w := range workloads {
		for _, s := range schemes {
			for _, c := range ckpts {
				if c.rollback && !rolls(s.name) {
					continue
				}
				if cell++; (cell-1)%stride != 0 {
					continue
				}
				run(fmt.Sprintf("%s/%s/%s", w.name, s.name, c.name), w.wl, engine.RunConfig{
					Scheme: s.s, CheckpointInterval: c.interval, Rollback: c.rollback, DeepCheckpoint: c.deep,
				}, false)
			}
		}
	}
	check(false)
	for _, w := range workloads {
		run(w.name+"/cc/parallel", w.wl, engine.RunConfig{Scheme: engine.CycleByCycle()}, true)
	}

	// The grid must reach every kind of quiet tick and the restore paths.
	for _, kind := range []string{"mem", "lock", "barrier"} {
		if counts[kind] == 0 {
			t.Errorf("no quiet %s tick occurred", kind)
		}
	}
	if rollbacks == 0 {
		t.Error("no run rolled back: the restore paths went unchecked")
	}
	t.Logf("quiet ticks checked: %v; %d rollbacks", counts, rollbacks)
}
