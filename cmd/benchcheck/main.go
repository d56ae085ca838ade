// Command benchcheck compares a freshly measured benchmark JSON (the
// output of scripts/bench.sh) against the committed BENCH_*.json
// baseline and fails on erosion: ns/op or allocs/op worse than the
// baseline by more than the tolerance factor. CI's bench-smoke job runs
// it so a PR cannot silently regress the host-performance work the
// baselines pin down.
//
// Allocation counts are deterministic, so their tolerance is tight;
// wall-clock ns/op on shared CI runners is noisy, so its tolerance is
// loose by default and meant to catch structural regressions (a lock
// back on the hot path), not scheduling jitter.
//
// Rows are matched by benchmark name with go test's GOMAXPROCS suffix
// ("-2", "-4") stripped, so a baseline recorded on one CPU count still
// gates a run on another. The gate fails when nothing matches at all or
// when a baseline ceiling (below) finds no current row: a comparison
// that compared nothing must not print OK.
//
// A baseline entry may additionally carry "max_allocs": an ABSOLUTE
// allocs/op ceiling enforced on the current measurement regardless of
// what the baseline itself measured. Ratio tolerances catch erosion
// relative to the last run; the ceiling pins an invariant ("the
// steady-state loop stays allocation-free") that must hold even across
// a chain of small individually-tolerated regressions.
//
//	benchcheck -current /tmp/now.json                 # newest BENCH_PR<n>.json
//	benchcheck -baseline BENCH_PR3.json -current /tmp/now.json
//	benchcheck -current /tmp/now.json -ns-tol 2.0 -allocs-tol 1.05
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

type benchFile struct {
	Benchtime string  `json:"benchtime"`
	Results   []entry `json:"results"`
}

type entry struct {
	Name        string   `json:"name"`
	Iters       int64    `json:"iters"`
	NsPerOp     *float64 `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
	// MaxAllocs, when set in the baseline, is a hard allocs/op ceiling
	// for the current measurement (absolute, not a ratio).
	MaxAllocs *float64 `json:"max_allocs,omitempty"`
}

func load(path string) (map[string]entry, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]entry, len(f.Results))
	for _, e := range f.Results {
		e.Name = procsSuffix.ReplaceAllString(e.Name, "")
		m[e.Name] = e
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return m, nil
}

// procsSuffix is the "-N" GOMAXPROCS suffix go test appends to a
// benchmark name when N > 1.
var procsSuffix = regexp.MustCompile(`-[0-9]+$`)

// baselineName matches the BENCH_PR<n>.json naming convention.
var baselineName = regexp.MustCompile(`^BENCH_PR([0-9]+)\.json$`)

// latestBaseline picks the BENCH_PR<n>.json in dir with the highest n:
// the newest PR's baseline. The order is numeric, so BENCH_PR10 is newer
// than BENCH_PR8.
func latestBaseline(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, e := range entries {
		m := baselineName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if n, err := strconv.Atoi(m[1]); err == nil && n > bestN {
			best, bestN = e.Name(), n
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_PR<n>.json baseline found in %s", dir)
	}
	return filepath.Join(dir, best), nil
}

func main() {
	baseline := flag.String("baseline", "", "baseline JSON (default: the BENCH_PR<n>.json with the highest n in -dir)")
	current := flag.String("current", "", "freshly measured JSON to check (required)")
	dir := flag.String("dir", ".", "directory searched for the default baseline")
	nsTol := flag.Float64("ns-tol", 1.5, "max allowed current/baseline ratio for ns/op")
	allocsTol := flag.Float64("allocs-tol", 1.10, "max allowed current/baseline ratio for allocs/op")
	flag.Parse()
	if *current == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -current is required")
		flag.Usage()
		os.Exit(2)
	}
	if *baseline == "" {
		b, err := latestBaseline(*dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(2)
		}
		*baseline = b
	}
	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}

	report, failures := compare(base, cur, *nsTol, *allocsTol)
	fmt.Printf("benchcheck: %s vs baseline %s (ns-tol %.2fx, allocs-tol %.2fx)\n", *current, *baseline, *nsTol, *allocsTol)
	for _, line := range report {
		fmt.Println(line)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %d regression(s):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
	fmt.Println("benchcheck: OK")
}

// compare returns a per-benchmark report and the list of erosion
// failures. A benchmark present on only one side is reported but not
// fatal by itself, so renames and new benchmarks do not break the gate.
// Two gaps are fatal, because they leave the gate comparing nothing: no
// name in common at all, and a baseline max_allocs ceiling with no
// current row to hold to it.
func compare(base, cur map[string]entry, nsTol, allocsTol float64) (report, failures []string) {
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	matched := 0
	for _, name := range names {
		c := cur[name]
		b, ok := base[name]
		if !ok {
			report = append(report, fmt.Sprintf("  %-60s new (no baseline)", name))
			continue
		}
		matched++
		line := fmt.Sprintf("  %-60s", name)
		if r, bad := ratio(b.NsPerOp, c.NsPerOp, nsTol); r != "" {
			line += " ns/op " + r
			if bad {
				failures = append(failures, fmt.Sprintf("%s ns/op %s exceeds %.2fx tolerance", name, r, nsTol))
			}
		}
		if r, bad := ratio(b.AllocsPerOp, c.AllocsPerOp, allocsTol); r != "" {
			line += " allocs/op " + r
			if bad {
				failures = append(failures, fmt.Sprintf("%s allocs/op %s exceeds %.2fx tolerance", name, r, allocsTol))
			}
		}
		if b.MaxAllocs != nil && c.AllocsPerOp != nil {
			line += fmt.Sprintf(" ceiling %.0f", *b.MaxAllocs)
			if *c.AllocsPerOp > *b.MaxAllocs {
				failures = append(failures, fmt.Sprintf("%s allocs/op %.0f exceeds the hard ceiling of %.0f", name, *c.AllocsPerOp, *b.MaxAllocs))
			}
		}
		report = append(report, line)
	}
	for name, b := range base {
		if _, ok := cur[name]; !ok {
			report = append(report, fmt.Sprintf("  %-60s dropped (baseline only)", name))
			if b.MaxAllocs != nil {
				failures = append(failures, fmt.Sprintf("%s carries a max_allocs ceiling of %.0f but has no current measurement", name, *b.MaxAllocs))
			}
		}
	}
	if matched == 0 {
		failures = append(failures, "no benchmark name is common to the baseline and the current run: nothing was compared")
	}
	sort.Strings(report)
	sort.Strings(failures)
	return report, failures
}

// ratio formats current/baseline and reports whether it exceeds tol.
// A missing metric on either side, or a zero baseline (nothing to
// erode), yields no verdict.
func ratio(b, c *float64, tol float64) (string, bool) {
	if b == nil || c == nil || *b <= 0 {
		return "", false
	}
	r := *c / *b
	return fmt.Sprintf("%.3fx", r), r > tol
}
