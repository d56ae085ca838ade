package bus

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestGrantInOrder(t *testing.T) {
	b := New(1, 1)
	g1, v1 := b.Grant(10)
	g2, v2 := b.Grant(20)
	if g1 != 10 || g2 != 20 {
		t.Errorf("grants %d,%d, want 10,20", g1, g2)
	}
	if v1 || v2 {
		t.Error("in-order grants flagged as violations")
	}
	if b.Grants != 2 || b.Conflicts != 0 || b.Violations != 0 {
		t.Errorf("stats %d/%d/%d", b.Grants, b.Conflicts, b.Violations)
	}
}

func TestGrantConflictDelays(t *testing.T) {
	b := New(1, 1)
	b.Grant(10)
	g, v := b.Grant(10) // same cycle: bus busy, delayed one cycle
	if g != 11 {
		t.Errorf("conflicting grant at %d, want 11", g)
	}
	if v {
		t.Error("equal-timestamp conflict is not a violation")
	}
	if b.Conflicts != 1 {
		t.Errorf("Conflicts = %d, want 1", b.Conflicts)
	}
}

func TestGrantRetrogradeViolation(t *testing.T) {
	b := New(1, 1)
	b.Grant(20)
	g, v := b.Grant(10)
	if !v {
		t.Error("retrograde grant not flagged")
	}
	if b.Violations != 1 {
		t.Errorf("Violations = %d, want 1", b.Violations)
	}
	// The retrograde request occupies the (free) earlier slot: the
	// reordering is the violation, not a timing penalty.
	if g != 10 {
		t.Errorf("retrograde grant time %d, want 10", g)
	}
	// A second retrograde request colliding with the first is pushed.
	g2, _ := b.Grant(10)
	if g2 != 11 {
		t.Errorf("second retrograde grant %d, want 11", g2)
	}
	// Monitor keeps its high-water mark.
	if b.MonitorTS() != 20 {
		t.Errorf("monitor = %d, want 20", b.MonitorTS())
	}
}

func TestRequestOccupancy(t *testing.T) {
	b := New(4, 1)
	b.Grant(0)
	g, _ := b.Grant(1)
	if g != 4 {
		t.Errorf("grant with 4-cycle occupancy at %d, want 4", g)
	}
}

func TestScheduleResponse(t *testing.T) {
	b := New(1, 2)
	d1 := b.ScheduleResponse(10)
	if d1 != 12 {
		t.Errorf("first response done at %d, want 12", d1)
	}
	d2 := b.ScheduleResponse(10) // must queue behind the first
	if d2 != 14 {
		t.Errorf("second response done at %d, want 14", d2)
	}
	d3 := b.ScheduleResponse(100) // idle bus: starts at ready time
	if d3 != 102 {
		t.Errorf("late response done at %d, want 102", d3)
	}
}

func TestSnapshotRestore(t *testing.T) {
	b := New(1, 1)
	b.Grant(5)
	b.ScheduleResponse(9)
	snap := b.Snapshot()
	b.Grant(50)
	b.Restore(snap)
	g, _ := b.Grant(5)
	if g != 6 {
		t.Errorf("grant after restore at %d, want 6", g)
	}
	if b.Grants != 2 {
		t.Errorf("stats after restore: %d grants, want 2", b.Grants)
	}
}

func TestInvalidOccupancyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero occupancy accepted")
		}
	}()
	New(0, 1)
}

// Property: a grant never lands before its request's own timestamp, and
// no two grants ever overlap on the bus.
func TestQuickGrantSlots(t *testing.T) {
	prop := func(tss []int16) bool {
		b := New(1, 1)
		used := map[int64]bool{}
		for _, ts16 := range tss {
			ts := int64(ts16)
			if ts < 0 {
				ts = -ts
			}
			g, _ := b.Grant(ts)
			if g < ts || used[g] {
				return false
			}
			used[g] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: requests arriving in nondecreasing timestamp order get
// nondecreasing grants (conservative servicing stays in order).
func TestQuickInOrderGrantsMonotone(t *testing.T) {
	prop := func(deltas []uint8) bool {
		b := New(1, 1)
		ts, last := int64(0), int64(-1)
		for _, d := range deltas {
			ts += int64(d)
			g, v := b.Grant(ts)
			if v || g < last {
				return false
			}
			last = g
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a violation is flagged exactly when a timestamp is below the
// running maximum.
func TestQuickViolationIffRetrograde(t *testing.T) {
	prop := func(tss []int16) bool {
		b := New(1, 1)
		max := int64(-1)
		for _, ts16 := range tss {
			ts := int64(ts16)
			if ts < 0 {
				ts = -ts
			}
			_, v := b.Grant(ts)
			if v != (ts < max) {
				return false
			}
			if ts > max {
				max = ts
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// reserveOracle is the original reserve: repeated full passes over the
// list until start stops moving, then a sorted insert that trims the
// oldest entry by reslicing.
func reserveOracle(res *[]int64, ready, occupancy int64) (start int64, delayed bool) {
	start = ready
	moved := true
	for moved {
		moved = false
		for _, s := range *res {
			if start < s+occupancy && s < start+occupancy {
				start = s + occupancy
				moved = true
			}
		}
	}
	r := *res
	i := len(r)
	for i > 0 && r[i-1] > start {
		i--
	}
	r = append(r, 0)
	copy(r[i+1:], r[i:])
	r[i] = start
	if len(r) > resWindow {
		r = r[1:]
	}
	*res = r
	return start, start != ready
}

// TestReserveMatchesOracle runs reserve and the fixed-point oracle on the
// same random sorted lists — with duplicates and overlapping entries the
// bus itself never creates, full windows and single-slot gaps — and
// requires identical starts, delays and resulting lists.
func TestReserveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		occ := int64(1 + rng.Intn(4))
		n := rng.Intn(resWindow + 1)
		list := make([]int64, n)
		at := int64(rng.Intn(50))
		for i := range list {
			at += int64(rng.Intn(int(2*occ) + 1))
			list[i] = at
		}
		got, want := slices.Clone(list), slices.Clone(list)
		for k := 0; k < 4; k++ {
			ready := int64(rng.Intn(int(at) + 20))
			gs, gd := reserve(&got, ready, occ)
			ws, wd := reserveOracle(&want, ready, occ)
			if gs != ws || gd != wd || !slices.Equal(got, want) {
				t.Fatalf("trial %d: reserve(%v, ready=%d, occ=%d) = %d,%v -> %v; oracle %d,%v -> %v",
					trial, list, ready, occ, gs, gd, got, ws, wd, want)
			}
		}
	}
}

// TestReserveKeepsBackingArray checks that a full reservation window is
// updated in place instead of being resliced toward reallocation.
func TestReserveKeepsBackingArray(t *testing.T) {
	b := New(1, 1)
	for ts := int64(0); ts < resWindow; ts++ {
		b.Grant(ts * 2)
	}
	base := &b.reqRes[0]
	for ts := int64(resWindow); ts < 4*resWindow; ts++ {
		b.Grant(ts * 2)
		if &b.reqRes[0] != base || len(b.reqRes) != resWindow {
			t.Fatalf("grant %d moved the reservation window (len %d)", ts, len(b.reqRes))
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { b.Grant(1 << 20) }); allocs != 0 {
		t.Fatalf("Grant on a full window allocates %.0f times", allocs)
	}
}
