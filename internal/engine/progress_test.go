package engine

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"slacksim/internal/workload"
)

// checkMonotone asserts the recorded progress sequence is strictly
// increasing in Counter and nondecreasing in Cycles and Committed.
func checkMonotone(t *testing.T, got []Progress) {
	t.Helper()
	if len(got) == 0 {
		t.Fatalf("progress hook never fired")
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.Counter <= a.Counter {
			t.Fatalf("counter not strictly increasing at %d: %d -> %d", i, a.Counter, b.Counter)
		}
		if b.Cycles < a.Cycles {
			t.Fatalf("cycles decreased at %d: %d -> %d", i, a.Cycles, b.Cycles)
		}
		if b.Committed < a.Committed {
			t.Fatalf("committed decreased at %d: %d -> %d", i, a.Committed, b.Committed)
		}
	}
}

// finalCounter recomputes the watchdog's progress formula from the
// machine's end-of-run state: sum of local times, committed instructions,
// and retirement flags. Both hosts' hooks must never report more motion
// than the machine actually made.
func finalCounter(m *Machine, res Results) uint64 {
	var p uint64
	for _, c := range m.cores {
		p += uint64(c.Now())
		p += c.Stats().Committed
		if c.Halted() {
			p++
		}
	}
	return p
}

func TestProgressHookDeterministic(t *testing.T) {
	w := workload.NewFFT(64)
	m := newTestMachine(t, w, 4)
	var got []Progress
	res, err := Run(m, RunConfig{
		Scheme:        BoundedSlack(8),
		Seed:          3,
		OnProgress:    func(p Progress) { got = append(got, p) },
		ProgressEvery: 1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkMonotone(t, got)
	if len(got) < 2 {
		t.Fatalf("expected several progress deliveries with ProgressEvery=1, got %d", len(got))
	}
	fc := finalCounter(m, res)
	last := got[len(got)-1]
	if last.Counter > fc {
		t.Fatalf("hook counter %d exceeds machine's final progress %d", last.Counter, fc)
	}
	if last.Cycles > res.Cycles {
		t.Fatalf("hook cycles %d exceeds final global time %d", last.Cycles, res.Cycles)
	}
}

func TestProgressHookParallel(t *testing.T) {
	w := workload.NewFFT(64)
	m := newTestMachine(t, w, 4)
	// The hook runs on the manager goroutine only, so plain appends are
	// safe; the slice is read after RunParallel returns.
	var got []Progress
	res, err := RunParallel(m, RunConfig{
		Scheme:        BoundedSlack(8),
		OnProgress:    func(p Progress) { got = append(got, p) },
		ProgressEvery: 1,
		StallTimeout:  30 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunParallel: %v", err)
	}
	checkMonotone(t, got)
	// The parallel hook reports parRun.progress() verbatim — the same
	// counter the stall watchdog polls — so it can never exceed the
	// machine's final motion, and a nonzero delivery proves the watchdog
	// would have seen the same forward progress.
	fc := finalCounter(m, res)
	last := got[len(got)-1]
	if last.Counter > fc {
		t.Fatalf("hook counter %d exceeds watchdog's final progress %d", last.Counter, fc)
	}
	if last.Counter == 0 && len(got) == 1 {
		t.Fatalf("hook only observed zero progress")
	}
}

// TestProgressHookRollbackMonotone: rollback restores clocks backwards;
// the notifier must suppress those windows so subscribers still see a
// strictly increasing counter.
func TestProgressHookRollbackMonotone(t *testing.T) {
	w := workload.NewFalseShare(128)
	m := newTestMachine(t, w, 4)
	var got []Progress
	res, err := Run(m, RunConfig{
		Scheme:             BoundedSlack(32),
		Seed:               7,
		CheckpointInterval: 200,
		Rollback:           true,
		OnProgress:         func(p Progress) { got = append(got, p) },
		ProgressEvery:      1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkMonotone(t, got)
	_ = res
}

func TestInterruptDeterministic(t *testing.T) {
	w := workload.NewFFT(256)
	m := newTestMachine(t, w, 4)
	var stop atomic.Bool
	n := 0
	_, err := Run(m, RunConfig{
		Scheme: BoundedSlack(8),
		Seed:   1,
		OnProgress: func(Progress) {
			n++
			if n == 3 {
				stop.Store(true)
			}
		},
		ProgressEvery: 1,
		Interrupt:     &stop,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
}

func TestInterruptParallel(t *testing.T) {
	w := workload.NewFFT(256)
	m := newTestMachine(t, w, 4)
	var stop atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := RunParallel(m, RunConfig{
			Scheme:       UnboundedSlack(),
			StallTimeout: 30 * time.Second,
			Interrupt:    &stop,
		})
		done <- err
	}()
	stop.Store(true)
	select {
	case err := <-done:
		// A fast run may legitimately finish before the store lands; the
		// contract is only that a raised interrupt yields ErrInterrupted.
		if err != nil && !errors.Is(err, ErrInterrupted) {
			t.Fatalf("want nil or ErrInterrupted, got %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("interrupted parallel run did not stop")
	}
}

// TestProgressHookInvariance pins that observing a run does not change
// it: the same deterministic run with OnProgress set and with it nil must
// give identical Results and draw the same number of values from the
// scheduling rng (the step skips the progress arguments when no hook is
// installed, and must not skip anything else).
func TestProgressHookInvariance(t *testing.T) {
	for _, cfg := range []RunConfig{
		{Scheme: BoundedSlack(16), Seed: 3, CheckpointInterval: 500, Rollback: true},
		{Scheme: CycleByCycle(), Seed: 3},
		{Scheme: LaxP2PScheme(50, 20), Seed: 3, CheckpointInterval: 500},
	} {
		t.Run(cfg.Scheme.Name(), func(t *testing.T) {
			plain, plainRes, err := run(newTestMachine(t, workload.NewBarnes(32, 2), 4), cfg)
			if err != nil {
				t.Fatal(err)
			}
			fired := 0
			cfg.OnProgress = func(Progress) { fired++ }
			cfg.ProgressEvery = 64
			hooked, hookedRes, err := run(newTestMachine(t, workload.NewBarnes(32, 2), 4), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fired == 0 {
				t.Fatal("progress hook never fired")
			}
			plainRes.WallClock, hookedRes.WallClock = 0, 0
			if !reflect.DeepEqual(plainRes, hookedRes) {
				t.Errorf("Results differ with a progress hook:\n nil  %+v\n hook %+v", plainRes, hookedRes)
			}
			if plain.rng.n != hooked.rng.n {
				t.Errorf("rng draws differ with a progress hook: %d vs %d", plain.rng.n, hooked.rng.n)
			}
		})
	}
}
