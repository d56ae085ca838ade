package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"slacksim"
	"slacksim/internal/spec"
	"slacksim/internal/synth"
)

// libJob is one spec of a library workload's round.
type libJob struct {
	sp  spec.Spec
	cfg slacksim.Config
	// ref is the CC run of the same kernel, input, cores and seed (nil
	// for CC jobs themselves and jobs without one).
	ref *slacksim.Results
}

// libBench drives the simulator through the public facade, one closed-loop
// caller running New → Run → Verify → Release per job.
type libBench struct {
	tr    *tracer
	round []libJob

	mu     sync.Mutex
	digest []string // canonical Results digest per round slot
}

func (b *libBench) roundLen() int { return len(b.round) }
func (b *libBench) callers() int  { return 1 }
func (b *libBench) close() error  { return nil }

// canonical is the digest of a result's simulated content: everything
// except the host wall clock.
func canonical(r *slacksim.Results) string {
	c := *r
	c.WallClock = 0
	blob, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("results do not encode: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// runLibrary runs cfg through the facade once, outside any measurement.
// verr is the functional check's verdict on a finished run.
func runLibrary(cfg slacksim.Config) (res *slacksim.Results, verr, err error) {
	sim, err := slacksim.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	r, err := sim.Run()
	if err != nil {
		return nil, nil, err
	}
	verr = sim.Verify()
	sim.Release()
	return &r, verr, nil
}

// knownVerifyFailure reports whether a functional-check failure is known
// defect 1: a wrong consumer sum in a synthetic workload.
func knownVerifyFailure(sp spec.Spec, verr error) bool {
	return sp.Workload == "synth" && strings.Contains(verr.Error(), "consumer sum")
}

func (b *libBench) job(w *window, i int64) {
	slot := int(i % int64(len(b.round)))
	j := &b.round[slot]

	root := b.tr.begin(spanJob, i, 0)
	start := time.Now()
	s := b.tr.begin(spanNew, i, root.id)
	sim, err := slacksim.New(j.cfg)
	s.end()
	var res slacksim.Results
	var runTime time.Duration
	if err == nil {
		s = b.tr.begin(spanRun, i, root.id)
		t := time.Now()
		res, err = sim.Run()
		runTime = time.Since(t)
		s.end()
	}
	var verr error
	if err == nil {
		s = b.tr.begin(spanVerify, i, root.id)
		verr = sim.Verify()
		s.end()
		s = b.tr.begin(spanRelease, i, root.id)
		sim.Release()
		s.end()
	}
	lat := time.Since(start)
	root.end()

	if err != nil {
		w.job(lat, "", fmt.Errorf("%s: %w", describe(j.sp), err))
		return
	}
	w.engine(&res, runTime)
	if verr != nil {
		class := ""
		if knownVerifyFailure(j.sp, verr) {
			class = knownSynthVerify
		}
		w.job(lat, class, fmt.Errorf("%s: verify: %w", describe(j.sp), verr))
		return
	}
	if msg := b.check(slot, &res); msg != "" {
		w.job(lat, "", errors.New(msg))
		return
	}
	if j.ref != nil && j.sp.Scheme != "cc" {
		w.cycleError(&res, j.ref)
	}
	w.job(lat, "", nil)
}

// check applies the determinism gate to one verified result: every run of
// a round slot must give the same Results. It returns the violation, if
// any.
func (b *libBench) check(slot int, res *slacksim.Results) string {
	d := canonical(res)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.digest[slot] == "" {
		b.digest[slot] = d
		return ""
	}
	if b.digest[slot] != d {
		return fmt.Sprintf("%s: repeated run gave different results", describe(b.round[slot].sp))
	}
	return ""
}

// finish checks nothing further; library jobs are checked as they run.
func (b *libBench) finish(w *window) {}

// resultDigest digests every round slot's simulated Results in
// round order; empty when no job finished.
func (b *libBench) resultDigest() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	h := sha256.New()
	n := 0
	for _, d := range b.digest {
		if d != "" {
			n++
		}
		fmt.Fprintln(h, d)
	}
	if n == 0 {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

func describe(sp spec.Spec) string {
	s := fmt.Sprintf("%s/x%d/%dc/%s/seed%d", sp.Workload, sp.Scale, sp.Cores, sp.Scheme, sp.Seed)
	if sp.Synth != nil {
		s += fmt.Sprintf("/%s-ops%d-seed%d", sp.Synth.Pattern, sp.Synth.Ops, sp.Synth.Seed)
	}
	if sp.CheckpointInterval > 0 {
		s += fmt.Sprintf("/ckpt%d", sp.CheckpointInterval)
	}
	if sp.Rollback {
		s += "/rollback"
	}
	return s
}

// newLibBench builds the round from specs in a seeded order, attaching
// to each job but a CC one its CC twin's results, which it runs now (these
// runs are the warm-up).
func newLibBench(tr *tracer, rng *rand.Rand, specs []spec.Spec) (*libBench, error) {
	b := &libBench{tr: tr}
	refs := make(map[string]*slacksim.Results)
	for _, k := range rng.Perm(len(specs)) {
		sp := specs[k]
		cfg, err := sp.Config()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", describe(sp), err)
		}
		j := libJob{sp: sp, cfg: cfg}
		if sp.Scheme != "cc" {
			cc := ccTwin(sp)
			key := cc.Key()
			if refs[key] == nil {
				ccfg, err := cc.Config()
				if err != nil {
					return nil, err
				}
				// A reference that trips known defect 1 still carries the CC
				// timing the slack runs are compared against.
				res, verr, err := runLibrary(ccfg)
				if err == nil && verr != nil && !knownVerifyFailure(cc, verr) {
					err = verr
				}
				if err != nil {
					return nil, fmt.Errorf("CC reference %s: %w", describe(cc), err)
				}
				refs[key] = res
			}
			j.ref = refs[key]
		}
		b.round = append(b.round, j)
	}
	b.digest = make([]string, len(b.round))
	return b, nil
}

// ccTwin is the CC run of sp's kernel, input, cores and seed.
func ccTwin(sp spec.Spec) spec.Spec {
	return spec.Spec{Workload: sp.Workload, Scale: sp.Scale, Cores: sp.Cores, Scheme: "cc", Seed: sp.Seed, Synth: sp.Synth}
}

func seedOf(rng *rand.Rand) int64 { return rng.Int63n(1<<20) + 1 }

// slackLadder is the paper's Fig. 3 / Table 2 sweep on the deterministic
// host: four kernels at two input sizes under CC, bounded, unbounded and
// adaptive slack.
func slackLadder(env *env) (bench, error) {
	type cell struct {
		kernel string
		scale  int
	}
	cells := []cell{{"fft", 1}, {"fft", 4}, {"lu", 1}, {"lu", 2}, {"barnes", 1}, {"barnes", 2}, {"water", 1}, {"water", 2}}
	schemes := []string{"cc", "s16", "su", "adaptive"}
	seeds := 2 // scheduling seeds per cell, to average the slack error
	if env.tiny {
		cells, schemes, seeds = cells[:1], []string{"cc", "s16"}, 1
	}
	var specs []spec.Spec
	for _, c := range cells {
		for n := 0; n < seeds; n++ {
			seed := seedOf(env.rng)
			for _, s := range schemes {
				specs = append(specs, spec.Spec{Workload: c.kernel, Scale: c.scale, Cores: 8, Scheme: s, Seed: seed,
					MeasureViolations: s == "s16" || s == "su"})
			}
		}
	}
	return newLibBench(env.tr, env.rng, specs)
}

// speculative runs adaptive and bounded slack with periodic checkpoints at
// the paper's scaled intervals, rollback on and off, over the lock
// kernels and the synthetic sharing patterns at large ops.
func speculative(env *env) (bench, error) {
	type input struct {
		kernel string
		scale  int
		synth  *synth.Config
	}
	// The synthetic inputs are fixed: generator seed 1 and scheduling seed
	// 1, the seeds known defect 1 reproduces with, so the defect's share
	// of the jobs is the same on every workload seed. The workload seed
	// varies the kernels' scheduling seed of every cell, each with its own
	// CC reference so the slack error averages over many seeds, and the
	// job order.
	inputs := []input{{kernel: "water", scale: 2}, {kernel: "barnes", scale: 2}}
	for _, p := range []string{synth.PatternZipf, synth.PatternMigratory, synth.PatternProdCons, synth.PatternMixed} {
		inputs = append(inputs, input{kernel: "synth", synth: &synth.Config{Pattern: p, Ops: 256, Seed: 1}})
	}
	intervals := []int64{500, 1000, 5000}
	rollback := []bool{false, true}
	if env.tiny {
		inputs, intervals = []input{{kernel: "barnes", scale: 1}}, intervals[:1]
	}
	var specs []spec.Spec
	for i, in := range inputs {
		for k, iv := range intervals {
			for r, rb := range rollback {
				seed := int64(1)
				if in.synth == nil {
					seed = seedOf(env.rng)
				}
				s := "adaptive"
				if (i+k+r)%2 == 1 {
					s = "s16"
				}
				specs = append(specs, spec.Spec{Workload: in.kernel, Scale: in.scale, Cores: 8, Scheme: s, Seed: seed,
					CheckpointInterval: iv, Rollback: rb, Synth: in.synth})
			}
		}
	}
	if !env.tiny {
		// Known defect 1, as reproduced: the mixed pattern's consumer sum
		// is wrong on the deterministic host. These specs run in every
		// round whatever the seed.
		for _, r := range []struct {
			seed   int64
			scheme string
		}{{1, "cc"}, {2, "su"}} {
			specs = append(specs, spec.Spec{Workload: "synth", Cores: 8, Scheme: r.scheme, Seed: 1,
				Synth: &synth.Config{Pattern: synth.PatternMixed, Ops: 384, Seed: r.seed}})
		}
	}
	return newLibBench(env.tr, env.rng, specs)
}
