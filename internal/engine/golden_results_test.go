package engine

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"slacksim/internal/adaptive"
	"slacksim/internal/synth"
	"slacksim/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

const goldenResultsFile = "testdata/golden_results.json"

// goldenRun is one pinned deterministic-host run: its canonical Results
// (WallClock zeroed) and the number of scheduling-rng draws it made.
type goldenRun struct {
	Name    string          `json:"name"`
	Draws   uint64          `json:"draws"`
	Results json.RawMessage `json:"results"`
}

// goldenCase is one cell of the pinned matrix.
type goldenCase struct {
	name  string
	wl    func() (Workload, error)
	cores int
	cfg   RunConfig
}

// goldenResultsMatrix is the grid TestGoldenResultsMatrix pins: every
// scheme kind, checkpointing off and on, rollback off and on, over two
// SPLASH-2-style kernels and a synthetic sharing mix.
func goldenResultsMatrix() []goldenCase {
	workloads := []struct {
		name string
		wl   func() (Workload, error)
	}{
		{"fft", func() (Workload, error) { return workload.NewFFT(128), nil }},
		{"barnes", func() (Workload, error) { return workload.NewBarnes(32, 2), nil }},
		{"synth-mixed", func() (Workload, error) {
			return synth.New(synth.Config{Pattern: synth.PatternMixed, Ops: 48, Phases: 3})
		}},
	}
	schemes := []struct {
		name string
		s    Scheme
	}{
		{"cc", CycleByCycle()},
		{"s16", BoundedSlack(16)},
		{"su", UnboundedSlack()},
		{"adaptive", AdaptiveSlack(adaptive.DefaultConfig())},
		{"q100", QuantumScheme(100)},
		{"p2p50", LaxP2PScheme(50, 50)},
	}
	ckpts := []struct {
		name     string
		interval int64
		rollback bool
	}{
		{"ckpt0", 0, false},
		{"ckpt500", 500, false},
		{"ckpt500-rollback", 500, true},
	}
	var out []goldenCase
	for _, w := range workloads {
		for _, s := range schemes {
			for _, c := range ckpts {
				out = append(out, goldenCase{
					name:  fmt.Sprintf("%s/%s/%s", w.name, s.name, c.name),
					wl:    w.wl,
					cores: 4,
					cfg: RunConfig{
						Scheme:             s.s,
						Seed:               7,
						CheckpointInterval: c.interval,
						Rollback:           c.rollback,
					},
				})
			}
		}
	}
	// Eight-core speculative runs long enough for rollbacks to land while
	// CC replay still holds requests queued, so eager service after the
	// replay observes the order conservative service left them in.
	barnes := func() (Workload, error) { return workload.NewBarnes(128, 2), nil }
	for _, s := range schemes[1:4] { // s16, su, adaptive
		out = append(out, goldenCase{
			name:  fmt.Sprintf("barnes-128x8/%s/ckpt500-rollback", s.name),
			wl:    barnes,
			cores: 8,
			cfg:   RunConfig{Scheme: s.s, Seed: 3, CheckpointInterval: 500, Rollback: true},
		})
	}
	return out
}

// runGolden runs one matrix case on a fresh machine and returns its
// canonical record.
func runGolden(t *testing.T, c goldenCase) goldenRun {
	t.Helper()
	w, err := c.wl()
	if err != nil {
		t.Fatal(err)
	}
	r, res, err := run(newTestMachine(t, w, c.cores), c.cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	res.WallClock = 0
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return goldenRun{Name: c.name, Draws: r.rngSrc.n, Results: blob}
}

// TestGoldenResultsMatrix pins the deterministic host's complete Results
// and rng draw count across the scheme × checkpoint × rollback grid.
// Unlike TestGoldenCCCycles, which pins only CC cycles, this catches any
// reordering of slack-mode pacing decisions: a changed pick, chunk or
// Lax-P2P partner shifts the draw count or the violation counters even
// when the cycle count happens to survive. Regenerate with -update only
// for an intentional model change.
func TestGoldenResultsMatrix(t *testing.T) {
	var got []goldenRun
	for _, c := range goldenResultsMatrix() {
		got = append(got, runGolden(t, c))
	}
	if *updateGolden {
		// One compact run per line keeps a moved cell a one-line diff.
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, g := range got {
			line, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.MkdirAll(filepath.Dir(goldenResultsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenResultsFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(goldenResultsFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d runs, matrix has %d", len(want), len(got))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Name != w.Name {
			t.Fatalf("run %d: name %q, golden %q", i, g.Name, w.Name)
		}
		if g.Draws != w.Draws {
			t.Errorf("%s: %d rng draws, golden %d", g.Name, g.Draws, w.Draws)
		}
		var gc, wc bytes.Buffer
		if err := json.Compact(&gc, g.Results); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&wc, w.Results); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gc.Bytes(), wc.Bytes()) {
			t.Errorf("%s: Results moved\n got  %s\n want %s", g.Name, gc.Bytes(), wc.Bytes())
		}
	}
}
