package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func f(v float64) *float64 { return &v }

func TestCompareFlagsErosion(t *testing.T) {
	base := map[string]entry{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: f(1000), AllocsPerOp: f(100)},
		"BenchmarkB": {Name: "BenchmarkB", NsPerOp: f(1000), AllocsPerOp: f(100)},
		"BenchmarkC": {Name: "BenchmarkC", NsPerOp: f(1000), AllocsPerOp: f(100)},
	}
	cur := map[string]entry{
		// Inside both tolerances: faster and fewer allocs.
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: f(800), AllocsPerOp: f(90)},
		// ns/op erosion beyond 1.5x.
		"BenchmarkB": {Name: "BenchmarkB", NsPerOp: f(1600), AllocsPerOp: f(100)},
		// allocs/op erosion beyond 1.10x, ns/op fine.
		"BenchmarkC": {Name: "BenchmarkC", NsPerOp: f(1100), AllocsPerOp: f(120)},
	}
	_, failures := compare(base, cur, 1.5, 1.10)
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want 2 (B ns, C allocs)", failures)
	}
	joined := strings.Join(failures, "\n")
	if !strings.Contains(joined, "BenchmarkB ns/op") || !strings.Contains(joined, "BenchmarkC allocs/op") {
		t.Fatalf("wrong failures: %v", failures)
	}
}

func TestCompareNewAndDroppedAreNotFatal(t *testing.T) {
	base := map[string]entry{
		"BenchmarkKept": {Name: "BenchmarkKept", NsPerOp: f(1000), AllocsPerOp: f(10)},
		"BenchmarkOld":  {Name: "BenchmarkOld", NsPerOp: f(1000), AllocsPerOp: f(10)},
	}
	cur := map[string]entry{
		"BenchmarkKept": {Name: "BenchmarkKept", NsPerOp: f(1000), AllocsPerOp: f(10)},
		"BenchmarkNew":  {Name: "BenchmarkNew", NsPerOp: f(9999), AllocsPerOp: f(9999)},
	}
	report, failures := compare(base, cur, 1.5, 1.10)
	if len(failures) != 0 {
		t.Fatalf("rename/new benchmarks must not fail the gate: %v", failures)
	}
	joined := strings.Join(report, "\n")
	if !strings.Contains(joined, "new (no baseline)") || !strings.Contains(joined, "dropped (baseline only)") {
		t.Fatalf("report missing new/dropped notes:\n%s", joined)
	}
}

func TestCompareEnforcesHardAllocCeiling(t *testing.T) {
	base := map[string]entry{
		// Baseline measured 400 allocs with a 500 ceiling: a current run at
		// 430 passes the 1.10x ratio but a run at 600 must trip the ceiling
		// even if the ratio were tolerated.
		"BenchmarkHot":  {Name: "BenchmarkHot", NsPerOp: f(1000), AllocsPerOp: f(400), MaxAllocs: f(500)},
		"BenchmarkCold": {Name: "BenchmarkCold", NsPerOp: f(1000), AllocsPerOp: f(400)},
	}
	cur := map[string]entry{
		"BenchmarkHot":  {Name: "BenchmarkHot", NsPerOp: f(1000), AllocsPerOp: f(430)},
		"BenchmarkCold": {Name: "BenchmarkCold", NsPerOp: f(1000), AllocsPerOp: f(430)},
	}
	if report, failures := compare(base, cur, 1.5, 1.10); len(failures) != 0 {
		t.Fatalf("within-ceiling run failed: %v", failures)
	} else if !strings.Contains(strings.Join(report, "\n"), "ceiling 500") {
		t.Fatalf("report does not show the ceiling:\n%s", strings.Join(report, "\n"))
	}

	over := map[string]entry{
		"BenchmarkHot":  {Name: "BenchmarkHot", NsPerOp: f(1000), AllocsPerOp: f(600)},
		"BenchmarkCold": {Name: "BenchmarkCold", NsPerOp: f(1000), AllocsPerOp: f(600)},
	}
	// Huge allocs tolerance: only the absolute ceiling may fire, and only
	// for the benchmark that declares one.
	_, failures := compare(base, over, 1.5, 100)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkHot allocs/op 600 exceeds the hard ceiling of 500") {
		t.Fatalf("failures = %v, want exactly the BenchmarkHot ceiling breach", failures)
	}
}

func TestCompareMissingMetricsSkipped(t *testing.T) {
	base := map[string]entry{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: f(1000)}, // no allocs in baseline
		"BenchmarkZ": {Name: "BenchmarkZ", NsPerOp: f(0), AllocsPerOp: f(0)},
	}
	cur := map[string]entry{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: f(1000), AllocsPerOp: f(50)},
		"BenchmarkZ": {Name: "BenchmarkZ", NsPerOp: f(5), AllocsPerOp: f(5)},
	}
	// A zero or absent baseline metric yields no verdict — never a panic
	// or a divide-by-zero "regression".
	if _, failures := compare(base, cur, 1.5, 1.10); len(failures) != 0 {
		t.Fatalf("failures = %v, want none", failures)
	}
}

func TestCompareFailsWhenNothingOverlaps(t *testing.T) {
	base := map[string]entry{
		"BenchmarkOld": {Name: "BenchmarkOld", NsPerOp: f(1000), AllocsPerOp: f(10)},
	}
	cur := map[string]entry{
		"BenchmarkNew": {Name: "BenchmarkNew", NsPerOp: f(1000), AllocsPerOp: f(10)},
	}
	_, failures := compare(base, cur, 1.5, 1.10)
	if len(failures) != 1 || !strings.Contains(failures[0], "nothing was compared") {
		t.Fatalf("failures = %v, want the no-overlap failure", failures)
	}
}

func TestCompareFailsWhenACeilingMatchesNoRow(t *testing.T) {
	base := map[string]entry{
		"BenchmarkKept": {Name: "BenchmarkKept", NsPerOp: f(1000), AllocsPerOp: f(10)},
		"BenchmarkHot":  {Name: "BenchmarkHot", NsPerOp: f(1000), AllocsPerOp: f(400), MaxAllocs: f(500)},
	}
	cur := map[string]entry{
		"BenchmarkKept": {Name: "BenchmarkKept", NsPerOp: f(1000), AllocsPerOp: f(10)},
	}
	_, failures := compare(base, cur, 1.5, 1.10)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkHot carries a max_allocs ceiling of 500") {
		t.Fatalf("failures = %v, want the unmatched-ceiling failure", failures)
	}
}

func writeBench(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadStripsGOMAXPROCSSuffix: a baseline recorded at GOMAXPROCS=1
// and a run at GOMAXPROCS=4 name the same benchmarks differently; both
// must key on the bare name so the rows match and the ceiling applies.
func TestLoadStripsGOMAXPROCSSuffix(t *testing.T) {
	dir := t.TempDir()
	basePath, curPath := filepath.Join(dir, "base.json"), filepath.Join(dir, "cur.json")
	writeBench(t, basePath, `{"results": [
		{"name": "BenchmarkSimulatorThroughput/CC", "ns_per_op": 1000, "allocs_per_op": 38, "max_allocs": 500},
		{"name": "BenchmarkCheckpointRestore/interval=25/deep", "ns_per_op": 1000, "allocs_per_op": 800}]}`)
	writeBench(t, curPath, `{"results": [
		{"name": "BenchmarkSimulatorThroughput/CC-4", "ns_per_op": 1000, "allocs_per_op": 600},
		{"name": "BenchmarkCheckpointRestore/interval=25/deep-4", "ns_per_op": 1000, "allocs_per_op": 800}]}`)
	base, err := load(basePath)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := load(curPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur["BenchmarkSimulatorThroughput/CC"]; !ok {
		t.Fatalf("suffix not stripped: %v", cur)
	}
	report, failures := compare(base, cur, 1.5, 100)
	if strings.Contains(strings.Join(report, "\n"), "new (no baseline)") {
		t.Fatalf("rows did not match:\n%s", strings.Join(report, "\n"))
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "exceeds the hard ceiling of 500") {
		t.Fatalf("failures = %v, want the ceiling enforced across GOMAXPROCS", failures)
	}
}

func TestLatestBaselineIsNumeric(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_PR3.json", "BENCH_PR8.json", "BENCH_PR10.json", "BENCH_PR9.json", "BENCH_notes.json"} {
		writeBench(t, filepath.Join(dir, name), `{"results": []}`)
	}
	got, err := latestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_PR10.json" {
		t.Fatalf("latest baseline = %s, want BENCH_PR10.json", got)
	}
	if _, err := latestBaseline(t.TempDir()); err == nil {
		t.Fatal("empty directory yielded a baseline")
	}
}
