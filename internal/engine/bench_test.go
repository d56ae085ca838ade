package engine

import (
	"fmt"
	"testing"

	"slacksim/internal/workload"
)

// BenchmarkCheckpointRestore compares the two checkpoint implementations
// on a rollback-heavy speculative run: the reference deep-copy path
// against the default incremental copy-on-write path, at several interval
// densities. The denser the checkpoints, the more the incremental path's
// advantage matters (Tcpt dominates the paper's Ts formula at small I).
// Both paths produce byte-identical Results — proven by
// internal/stress.ExecuteCheckpointEquivalence — so this measures pure
// host cost.
func BenchmarkCheckpointRestore(b *testing.B) {
	for _, iv := range []int64{25, 100, 250, 1000} {
		for _, tc := range []struct {
			name string
			deep bool
		}{
			{"incremental", false},
			{"deep", true},
		} {
			b.Run(fmt.Sprintf("interval=%d/%s", iv, tc.name), func(b *testing.B) {
				b.ReportAllocs()
				var ckpts, rollbacks int
				for i := 0; i < b.N; i++ {
					m, err := NewMachine(MachineConfig{NumCores: 8}, workload.NewFFT(8))
					if err != nil {
						b.Fatal(err)
					}
					res, err := Run(m, RunConfig{
						Scheme:             BoundedSlack(16),
						Seed:               1,
						CheckpointInterval: iv,
						Rollback:           true,
						DeepCheckpoint:     tc.deep,
					})
					if err != nil {
						b.Fatal(err)
					}
					ckpts += res.Checkpoints
					rollbacks += res.Rollbacks
				}
				b.ReportMetric(float64(ckpts)/float64(b.N), "ckpts/run")
				b.ReportMetric(float64(rollbacks)/float64(b.N), "rollbacks/run")
			})
		}
	}
}

// BenchmarkDetStep measures the deterministic host's cost per simulated
// core-cycle on two pinned specs: a speculative run (barnes at scale 2,
// bounded slack 16, checkpoints every 500 cycles, rollback) and the
// cycle-by-cycle gold standard (fft). ns/core-cycle is host time per
// ticked core-cycle, wasted and replayed cycles included; steps/core-cycle
// is pacing steps (one picked core, one chunk) per core-cycle — CC takes a
// step per cycle, slack modes amortize a step over a chunk. Together they
// show whether the time goes into ticking cores or into the pacing
// bookkeeping around each tick.
func BenchmarkDetStep(b *testing.B) {
	for _, tc := range []struct {
		name     string
		workload string
		scale    int
		cfg      RunConfig
	}{
		{"barnes-x2/s16/ckpt500/rollback", "barnes", 2,
			RunConfig{Scheme: BoundedSlack(16), Seed: 1, CheckpointInterval: 500, Rollback: true}},
		{"fft/cc", "fft", 1, RunConfig{Scheme: CycleByCycle(), Seed: 1}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var cycles, steps int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w, err := workload.ByName(tc.workload, tc.scale)
				if err != nil {
					b.Fatal(err)
				}
				m, err := NewMachine(MachineConfig{NumCores: 8}, w)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				r, _, err := run(m, tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles += r.meter.coreCycles
				steps += r.steps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/core-cycle")
			b.ReportMetric(float64(steps)/float64(cycles), "steps/core-cycle")
		})
	}
}
