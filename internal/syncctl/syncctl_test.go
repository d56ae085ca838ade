package syncctl

import (
	"sync"
	"testing"
)

func TestLockBasics(t *testing.T) {
	c := New(4)
	if !c.TryLock(0x10, 0, 1) {
		t.Fatal("free lock refused")
	}
	if c.TryLock(0x10, 1, 2) {
		t.Fatal("held lock granted to another core")
	}
	if got := c.HeldBy(0x10); got != 0 {
		t.Fatalf("HeldBy = %d, want 0", got)
	}
	c.Unlock(0x10, 0, 3)
	if got := c.HeldBy(0x10); got != -1 {
		t.Fatalf("HeldBy after unlock = %d, want -1", got)
	}
	if !c.TryLock(0x10, 1, 4) {
		t.Fatal("released lock refused")
	}
	if c.Acquires != 2 || c.Releases != 1 || c.Contended != 1 {
		t.Errorf("stats %d/%d/%d", c.Acquires, c.Releases, c.Contended)
	}
	if c.LocksHeld() != 1 {
		t.Errorf("LocksHeld = %d", c.LocksHeld())
	}
}

func TestLockReleaseVisibleNextCycle(t *testing.T) {
	c := New(2)
	c.TryLock(0x10, 0, 5)
	c.Unlock(0x10, 0, 9)
	// Same simulated cycle: the release has not propagated.
	if c.TryLock(0x10, 1, 9) {
		t.Fatal("same-cycle re-acquire succeeded")
	}
	if !c.TryLock(0x10, 1, 10) {
		t.Fatal("next-cycle acquire failed")
	}
}

func TestReacquirePanics(t *testing.T) {
	c := New(2)
	c.TryLock(0x10, 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("re-acquire did not panic")
		}
	}()
	c.TryLock(0x10, 0, 2)
}

func TestUnlockNotOwnerPanics(t *testing.T) {
	c := New(2)
	c.TryLock(0x10, 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("foreign unlock did not panic")
		}
	}()
	c.Unlock(0x10, 1, 2)
}

func TestUnlockUnheldPanics(t *testing.T) {
	c := New(2)
	defer func() {
		if recover() == nil {
			t.Error("unheld unlock did not panic")
		}
	}()
	c.Unlock(0x10, 0, 1)
}

func TestBarrierGenerations(t *testing.T) {
	c := New(3)
	g0 := c.BarrierArrive(0, 0, 10)
	if c.BarrierPassed(0, g0, 11) {
		t.Fatal("barrier passed with 1/3 arrivals")
	}
	if got := c.WaitingAt(0); got != 1 {
		t.Fatalf("WaitingAt = %d", got)
	}
	g1 := c.BarrierArrive(0, 1, 12)
	if g1 != g0 {
		t.Fatalf("same generation expected, got %d vs %d", g1, g0)
	}
	c.BarrierArrive(0, 2, 20) // releases at t=20
	if c.BarrierPassed(0, g0, 20) {
		t.Fatal("release visible in its own cycle")
	}
	if !c.BarrierPassed(0, g0, 21) {
		t.Fatal("barrier not released after all arrived")
	}
	if c.BarrierEpisodes != 1 {
		t.Errorf("episodes = %d", c.BarrierEpisodes)
	}
	// Next generation starts fresh.
	g2 := c.BarrierArrive(0, 0, 30)
	if g2 != g0+1 {
		t.Errorf("next generation = %d, want %d", g2, g0+1)
	}
	if c.BarrierPassed(0, g2, 31) {
		t.Error("new generation passed with 1/3")
	}
	// Complete generation 1; a generation two behind then passes
	// regardless of the asker's clock.
	c.BarrierArrive(0, 1, 32)
	c.BarrierArrive(0, 2, 33)
	if !c.BarrierPassed(0, g0, 0) {
		t.Error("long-past generation must pass")
	}
}

func TestBarrierDoubleArrivePanics(t *testing.T) {
	c := New(3)
	c.BarrierArrive(5, 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("double arrival did not panic")
		}
	}()
	c.BarrierArrive(5, 0, 2)
}

func TestIndependentBarriers(t *testing.T) {
	c := New(1)
	gA := c.BarrierArrive(1, 0, 7) // single-core barrier releases at once
	if !c.BarrierPassed(1, gA, 8) {
		t.Fatal("1-core barrier not released next cycle")
	}
	if c.BarrierPassed(2, 0, 100) {
		t.Fatal("untouched barrier reports passed")
	}
}

func TestSnapshotRestore(t *testing.T) {
	c := New(2)
	c.TryLock(0x10, 1, 1)
	c.BarrierArrive(0, 0, 2)
	snap := c.Snapshot()
	c.Unlock(0x10, 1, 3)
	c.BarrierArrive(0, 1, 4) // releases generation 0
	c.Restore(snap)
	if c.HeldBy(0x10) != 1 {
		t.Error("restore lost lock owner")
	}
	if c.BarrierPassed(0, 0, 100) {
		t.Error("restore lost barrier wait state")
	}
	if c.WaitingAt(0) != 1 {
		t.Errorf("restored arrivals = %d, want 1", c.WaitingAt(0))
	}
	// Deep copy: the snapshot must not see post-restore changes.
	c.BarrierArrive(0, 1, 5)
	if snap.BarrierPassed(0, 0, 100) {
		t.Error("snapshot aliases live barrier")
	}
}

func TestConcurrentLocking(t *testing.T) {
	c := New(8)
	var held sync.Map
	var wg sync.WaitGroup
	for core := 0; core < 8; core++ {
		wg.Add(1)
		go func(core int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				now := int64(core*1000 + i*2)
				if c.TryLock(0xA0, core, now) {
					if _, loaded := held.LoadOrStore("l", core); loaded {
						t.Errorf("two cores inside the lock")
					}
					held.Delete("l")
					c.Unlock(0xA0, core, now)
				}
			}
		}(core)
	}
	wg.Wait()
	if c.LocksHeld() != 0 {
		t.Errorf("locks leaked: %d", c.LocksHeld())
	}
}

// TestBarrierReleaseCounter checks that the barrier release counter
// moves on a barrier release, a Reset and a Restore, and on nothing
// else: lock traffic and arrivals that do not release leave it alone.
func TestBarrierReleaseCounter(t *testing.T) {
	c := New(2)
	moved := func(what string, want bool, op func()) {
		t.Helper()
		before := c.BarrierReleases()
		op()
		if got := c.BarrierReleases() != before; got != want {
			t.Errorf("%s: counter moved = %v, want %v", what, got, want)
		}
	}
	moved("TryLock", false, func() { c.TryLock(0x40, 0, 1) })
	moved("contended TryLock", false, func() { c.TryLock(0x40, 1, 1) })
	moved("Unlock", false, func() { c.Unlock(0x40, 0, 2) })
	moved("non-releasing arrival", false, func() { c.BarrierArrive(7, 0, 3) })
	moved("BarrierPassed", false, func() { c.BarrierPassed(7, 0, 4) })
	snap := c.Snapshot()
	moved("releasing arrival", true, func() { c.BarrierArrive(7, 1, 5) })
	moved("SyncSnapshot", false, func() { c.SyncSnapshot(snap) })
	moved("Restore", true, func() { c.Restore(snap) })
	moved("Reset", true, func() { c.Reset() })
}
