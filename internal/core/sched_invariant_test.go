package core_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"slacksim/internal/core"
	"slacksim/internal/engine"
	"slacksim/internal/synth"
	"slacksim/internal/workload"
)

// TestSchedStateMatchesRebuildInFullRuns drives whole engine runs with a
// check after every Tick of every core: the incrementally kept rdy, wait
// and pst masks must equal a from-scratch rebuild of the ROB window, and
// the completion watermark must not exceed any issued entry's doneAt.
// The grid covers SPLASH-2-style kernels and a synthetic sharing
// pattern, the cc, s16 and su schemes, checkpointing with rollback
// through both restore paths (incremental and deep), and ROB sizes that
// need one, two and four-word masks.
func TestSchedStateMatchesRebuildInFullRuns(t *testing.T) {
	// The first failure stops the run: a broken wakeup can wedge a core.
	var failure error
	var stop atomic.Bool
	core.SetAfterTick(func(c *core.Core) {
		if failure == nil {
			if failure = c.SchedError(); failure != nil {
				stop.Store(true)
			}
		}
	})
	t.Cleanup(func() { core.SetAfterTick(nil) })

	workloads := []struct {
		name string
		wl   func() (engine.Workload, error)
	}{
		{"fft", func() (engine.Workload, error) { return workload.NewFFT(64), nil }},
		{"barnes", func() (engine.Workload, error) { return workload.NewBarnes(32, 2), nil }},
		{"synth-zipf", func() (engine.Workload, error) {
			return synth.New(synth.Config{Pattern: synth.PatternZipf, Ops: 48, Phases: 3})
		}},
	}
	schemes := []struct {
		name string
		s    engine.Scheme
	}{
		{"cc", engine.CycleByCycle()},
		{"s16", engine.BoundedSlack(16)},
		{"su", engine.UnboundedSlack()},
	}
	type ckpt struct {
		name     string
		interval int64
		rollback bool
		deep     bool
	}
	ckpts := []ckpt{
		{"plain", 0, false, false},
		{"rollback", 500, true, false},
		{"rollback-deep", 500, true, true},
	}
	var rollbacks int
	var flushes uint64
	run := func(name string, wl func() (engine.Workload, error), robSize int, s engine.Scheme, c ckpt) {
		t.Helper()
		w, err := wl()
		if err != nil {
			t.Fatal(err)
		}
		m, err := engine.NewMachine(engine.MachineConfig{
			NumCores: 4,
			CoreConfig: func(i int) core.Config {
				cfg := core.DefaultConfig(i)
				cfg.ROBSize = robSize
				return cfg
			},
		}, w)
		if err != nil {
			t.Fatal(err)
		}
		failure = nil
		res, err := engine.Run(m, engine.RunConfig{
			Scheme: s, Seed: 5, Interrupt: &stop,
			CheckpointInterval: c.interval, Rollback: c.rollback, DeepCheckpoint: c.deep,
		})
		if failure != nil {
			t.Fatalf("%s: %v", name, failure)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rollbacks += res.Rollbacks
		for _, st := range res.PerCore {
			flushes += st.Flushes
		}
	}
	for _, w := range workloads {
		for _, s := range schemes {
			for _, c := range ckpts {
				run(fmt.Sprintf("%s/%s/%s", w.name, s.name, c.name), w.wl, 64, s.s, c)
			}
		}
	}
	for _, robSize := range []int{8, 96, 128, 200} {
		for _, c := range ckpts[1:] {
			run(fmt.Sprintf("barnes/s16/%s/rob%d", c.name, robSize), workloads[1].wl, robSize, schemes[1].s, c)
		}
	}
	// The grid must actually reach the rebuild paths it claims to cover.
	if rollbacks == 0 {
		t.Error("no run rolled back: the restore paths went unchecked")
	}
	if flushes == 0 {
		t.Error("no run flushed on a mispredict: the squash path went unchecked")
	}
	t.Logf("%d rollbacks, %d mispredict flushes checked", rollbacks, flushes)
}
