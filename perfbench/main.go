// Command perfbench is the repository benchmark: it runs one named
// workload of simulation jobs against the slacksim library or its /v1
// service for a fixed time, checks every result, and prints the
// end-to-end metrics (or, traced, the per-layer metrics) as the last line
// of its output, one JSON object. See README.md.
//
//	go run . --workload slack-ladder --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// processStart approximates the process start for setup_s.
var processStart = time.Now()

const (
	// minJobs is the fewest jobs a measured window holds, so that
	// job_ms_p90 has at least minTail samples beyond it.
	minJobs = 100
	// setupSamples is how many set-ups setup_s is the median of.
	setupSamples = 3
)

// bench is one workload, set up and ready to run jobs.
type bench interface {
	// roundLen is the number of jobs in the seeded round; a window runs
	// whole rounds.
	roundLen() int
	// callers is the number of closed-loop callers.
	callers() int
	// job runs job i of the stream and records its outcome in w.
	job(w *window, i int64)
	// finish runs the checks that follow a window.
	finish(w *window)
	close() error
}

// env is what a workload is built from.
type env struct {
	rng     *rand.Rand
	tr      *tracer
	tiny    bool   // smoke size: a handful of small jobs
	scratch string // directory for durable state
}

var workloads = map[string]func(*env) (bench, error){
	"slack-ladder": slackLadder,
	"speculative":  speculative,
	"service":      service,
}

// options are the command's arguments.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setupOnly bool   // set up, report readiness, tear down (a setup_s sample)
	samples   int    // setup_s samples, this process's included
	tiny      bool   // smoke size
	minJobs   int    // fewest jobs per measured window
	scratch   string // durable state and span files
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: slack-ladder, speculative or service")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds to measure (whole rounds, at least 100 jobs)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "set up, print the ready line and exit (used for setup_s samples)")
	flag.Parse()
	o.trace = traceFlag == 1
	o.samples, o.minJobs, o.scratch = setupSamples, minJobs, ".bench_build/run"

	if o.setupOnly {
		if err := setupOnly(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// readyLine is what a set-up-only process prints once it would start its
// first timed job.
const readyLine = "perfbench: ready"

func build(o options) (bench, *tracer, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, nil, fmt.Errorf("unknown workload %q (want %s)", o.workload, strings.Join(names, ", "))
	}
	tr := &tracer{}
	b, err := mk(&env{rng: rand.New(rand.NewSource(o.seed)), tr: tr, tiny: o.tiny, scratch: o.scratch})
	if err != nil {
		return nil, nil, fmt.Errorf("set up %s: %w", o.workload, err)
	}
	return b, tr, nil
}

func setupOnly(o options) error {
	b, _, err := build(o)
	if err != nil {
		return err
	}
	fmt.Println(readyLine)
	return b.close()
}

// setupSample starts this program set up only and returns the time from
// starting the process to its ready line.
func setupSample(o options) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", o.workload, "--seed", fmt.Sprint(o.seed), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	var took time.Duration
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if sc.Text() == readyLine && took == 0 {
			took = time.Since(start)
		}
	}
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up sample: %w", err)
	}
	if took == 0 {
		return 0, errors.New("set-up sample printed no ready line")
	}
	return took, nil
}

// measure runs whole rounds of b's job stream on its callers, from job
// *next on, until at least d has passed and at least min jobs have run.
// It leaves *next at the first job not run.
func measure(b bench, w *window, next *int64, d time.Duration, min int) {
	var mu sync.Mutex
	first, stopAt := *next, int64(-1)
	claim := func() (int64, bool) {
		mu.Lock()
		defer mu.Unlock()
		i := *next
		if stopAt < 0 && i%int64(b.roundLen()) == 0 && i-first >= int64(min) && time.Since(w.start) >= d {
			stopAt = i
		}
		if stopAt >= 0 && i >= stopAt {
			return 0, false
		}
		if i%int64(b.roundLen()) == 0 {
			w.rounds = append(w.rounds, time.Now())
		}
		*next++
		return i, true
	}
	w.roundLen = b.roundLen()
	w.begin()
	var wg sync.WaitGroup
	for c := 0; c < b.callers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				b.job(w, i)
			}
		}()
	}
	wg.Wait()
	w.close()
}

// run sets the workload up, measures it and returns the result line. It
// prints a human-readable account of the run to out.
func run(o options, out io.Writer) (*result, error) {
	b, tr, err := build(o)
	if err != nil {
		return nil, err
	}
	setups := []float64{time.Since(processStart).Seconds()}
	fail := func(err error) (*result, error) {
		b.close()
		return nil, err
	}
	for !o.trace && len(setups) < o.samples {
		d, err := setupSample(o)
		if err != nil {
			return fail(err)
		}
		setups = append(setups, d.Seconds())
	}
	d := time.Duration(o.seconds * float64(time.Second))
	svc, _ := b.(*serviceBench)
	var next int64 // the job stream continues across windows
	measureWindow := func(traced bool, d time.Duration, min int) *window {
		w := newWindow()
		if svc != nil {
			svc.cur.Store(w)
		}
		tr.on.Store(traced)
		measure(b, w, &next, d, min)
		tr.on.Store(false)
		if svc != nil {
			svc.cur.Store(nil)
		}
		return w
	}

	m := values{}
	var all []*window
	if !o.trace {
		w := measureWindow(false, d, o.minJobs)
		all = append(all, w)
		w.endToEnd(m)
		fmt.Fprintf(out, "job latency samples: %d in %d rounds (highest percentile with %d beyond it: p%v)\n",
			len(w.lat), len(w.rounds), minTail, tailPercentile(len(w.lat)))
		m["setup_s"] = percentile(setups, 50)
	} else {
		// Half the time untraced, half traced: the difference in throughput
		// is the tracing overhead; the traced half gives the layer metrics.
		plain := measureWindow(false, d/2, o.minJobs/2)
		var before [3]float64
		if svc != nil {
			h, mi, c, err := svc.statsz()
			if err != nil {
				return fail(err)
			}
			before = [3]float64{h, mi, c}
		}
		traced := measureWindow(true, d/2, o.minJobs/2)
		all = append(all, plain, traced)
		spans := tr.take()
		layerMetrics(m, traced, spans)
		m["bench.trace_overhead_pct"] = 100 * (ratio(rate(plain), rate(traced)) - 1)
		if svc != nil {
			if err := svc.layers(m, before); err != nil {
				return fail(err)
			}
		}
		if err := writeSpans(o.scratch, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed), spans); err != nil {
			return fail(err)
		}
	}
	for _, w := range all {
		b.finish(w)
	}
	if err := b.close(); err != nil {
		return nil, fmt.Errorf("tear down: %w", err)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	if !o.trace {
		m["host_mem_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}

	res := &result{Correct: true}
	classes := map[string]int{}
	var unexpected []string
	for _, w := range all {
		res.Attempted += w.attempted
		res.Failed += w.failed
		for c, n := range w.byClass {
			classes[c] += n
		}
		unexpected = append(unexpected, w.unexpected...)
	}
	if o.trace {
		m["bench.fail_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	}
	if len(unexpected) > 0 {
		res.Correct = false
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if res.Metrics, err = render(defs, m); err != nil {
		return nil, err
	}
	report(out, o, b, setups, res, classes, unexpected)
	return res, nil
}

// rate is a window's jobs per second over its median round.
func rate(w *window) float64 {
	return ratio(float64(w.roundLen), w.medianRound().Seconds())
}

// layerMetrics computes the per-layer metrics of a traced window.
func layerMetrics(m values, w *window, spans []span) {
	w.engineLayers(m)
	w.runtimeLayers(m)
	m["bench.jobs"] = float64(w.attempted)
	p50 := func(name string) float64 { return percentile(durations(spans, name), 50) }
	m["spec.key_us"] = us(p50(spanKey))
	m["slacksim.new_ms"] = ms(p50(spanNew))
	m["slacksim.release_us"] = us(p50(spanRelease))
	m["workload.verify_ms"] = ms(p50(spanVerify))
	m["client.submit_ms"] = ms(p50(spanSubmit))
	m["server.runner_ms"] = ms(p50(spanRunner))
	m["durable.cache_get_us"] = us(p50(spanCacheGet))
	m["durable.cache_put_ms"] = ms(p50(spanCachePut))
	j := durations(spans, spanJournal)
	m["durable.journal_submit_ms_p50"] = ms(percentile(j, 50))
	m["durable.journal_submit_ms_p90"] = ms(percentile(j, 90))
	dd := durations(spans, spanDispatch)
	m["fleet.dispatch_ms_p50"] = ms(percentile(dd, 50))
	m["fleet.dispatch_ms_p90"] = ms(percentile(dd, 90))

	// On the service the engine runs inside the workers' runner.
	run := durations(spans, spanRun)
	if len(run) == 0 {
		run = durations(spans, spanRunner)
	}
	m["engine.run_ms"] = ms(percentile(run, 50))
	self := selfTimes(spans)
	for _, l := range layers {
		m[l+".self_ms"] = ratio(ms(float64(self[l])), float64(w.attempted))
	}
}

// report prints a human-readable account of the run.
func report(out io.Writer, o options, b bench, setups []float64, res *result, classes map[string]int, unexpected []string) {
	fmt.Fprintf(out, "workload %s seed %d trace %v: %d jobs attempted, %d failed\n", o.workload, o.seed, o.trace, res.Attempted, res.Failed)
	fmt.Fprintf(out, "setup_s samples: %v\n", setups)
	var cs []string
	for c, n := range classes {
		cs = append(cs, fmt.Sprintf("%s=%d", c, n))
	}
	sort.Strings(cs)
	if len(cs) > 0 {
		fmt.Fprintf(out, "failures: %s\n", strings.Join(cs, " "))
	}
	for i, u := range unexpected {
		if i == 20 {
			fmt.Fprintf(out, "... %d more\n", len(unexpected)-i)
			break
		}
		fmt.Fprintf(out, "unexpected: %s\n", u)
	}
	if lb, ok := b.(*libBench); ok {
		if d := lb.resultDigest(); d != "" {
			fmt.Fprintf(out, "results digest (deterministic host, wall clock excluded): %s\n", d)
		}
	}
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
