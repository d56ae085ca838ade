package core

import (
	"fmt"
	"slices"
	"sync"
)

// SetAfterTick installs fn to run at the end of every Tick of every core
// (nil removes it). Callers must not run cores concurrently with the
// change.
func SetAfterTick(fn func(*Core)) { afterTick = fn }

// SchedError compares the core's derived scheduling state with a
// from-scratch rebuild of its ROB window. It returns nil when every mask
// is equal and the completion watermark is a lower bound on every issued
// entry's doneAt. The incrementally kept state is put back afterwards,
// so checking does not repair what it checks.
func (c *Core) SchedError() error {
	names := []string{"rdy", "wait", "pst", "iss", "deps"}
	masks := func() []seqMask { return []seqMask{c.rdy, c.wait, c.pst, c.iss, c.deps} }
	var kept []seqMask
	for _, m := range masks() {
		kept = append(kept, slices.Clone(m))
	}
	nextDone := c.nextDone
	c.rebuildSched()
	var err error
	for i, m := range masks() {
		if err == nil && !slices.Equal(kept[i], m) {
			err = fmt.Errorf("%s %x, rebuilt %x", names[i], kept[i], m)
		}
		copy(m, kept[i])
	}
	if err == nil && nextDone > c.nextDone {
		err = fmt.Errorf("nextDone %d above the earliest doneAt %d", nextDone, c.nextDone)
	}
	c.nextDone = nextDone
	if err != nil {
		return fmt.Errorf("%v at t=%d: %w", c, c.now, err)
	}
	return nil
}

// CheckQuietTicks makes every tick that the quiet fast path would take
// run the full cycle instead, and reports for each one whether the full
// cycle changed the core only by the quiet tick's predicted delta: the
// clock, Cycles, and the wait counter of its kind ("mem", "lock" or
// "barrier"). With shared set it also requires the InQ length and the
// synchronization controller's state to be unchanged, which only holds
// on the deterministic host (on the parallel host the manager and the
// other cores change them concurrently). nil removes the check. Callers
// must not run cores concurrently with the change.
func CheckQuietTicks(shared bool, report func(c *Core, kind string, err error)) {
	if report == nil {
		quietOracle = nil
		return
	}
	var mu sync.Mutex
	bufs := map[*Core]*[2]Snapshot{}
	quietOracle = func(c *Core, step func()) {
		mu.Lock()
		b := bufs[c]
		if b == nil {
			b = new([2]Snapshot)
			bufs[c] = b
		}
		mu.Unlock()
		pre, post := &b[0], &b[1]
		kind := c.quietWait
		c.SnapshotInto(pre)
		inQ := c.inQ.Len()
		var ctl [4]uint64
		if shared {
			ctl = syncCounts(c)
		}
		// Keep the horizon as the quiet tick would: the full cycle drops
		// and re-derives it, which would hide a horizon that runs long.
		q := c.quiet
		step()
		c.quiet = q
		c.SnapshotInto(post)
		pre.now++
		pre.stats.Cycles++
		switch kind {
		case quietLock:
			pre.stats.LockWait++
		case quietBarrier:
			pre.stats.BarrierWait++
		}
		err := snapshotDiff(pre, post)
		if err == nil && shared {
			if n := c.inQ.Len(); n != inQ {
				err = fmt.Errorf("InQ length %d, want %d", n, inQ)
			} else if now := syncCounts(c); now != ctl {
				err = fmt.Errorf("synchronization counters %v, want %v", now, ctl)
			}
		}
		name := [...]string{"mem", "lock", "barrier"}[kind]
		if err != nil {
			err = fmt.Errorf("%v: quiet %s tick: %w", c, name, err)
		}
		report(c, name, err)
	}
}

// syncCounts fingerprints what a core's own lock and barrier operations
// change in the synchronization controller: every lock operation moves
// one of the lock counters. (A barrier arrival that does not release
// marks the core's ROB entry instead, which snapshotDiff sees.)
func syncCounts(c *Core) [4]uint64 {
	s := c.sync
	return [4]uint64{s.Acquires, s.Releases, s.Contended, s.BarrierEpisodes}
}

// snapshotDiff names the first StateEqual field in which a and b differ.
func snapshotDiff(a, b *Snapshot) error {
	switch {
	case a.now != b.now:
		return fmt.Errorf("now %d, want %d", b.now, a.now)
	case a.stats != b.stats:
		return fmt.Errorf("stats %+v, want %+v", b.stats, a.stats)
	case a.regs != b.regs || a.mapTable != b.mapTable:
		return fmt.Errorf("registers or map table changed")
	case a.fetchPC != b.fetchPC || a.fetchStallUntil != b.fetchStallUntil ||
		a.serializeSeq != b.serializeSeq || a.nextSeq != b.nextSeq ||
		a.halted != b.halted || a.reqID != b.reqID:
		return fmt.Errorf("pipeline scalars changed")
	case !slices.Equal(a.rob, b.rob):
		return fmt.Errorf("ROB changed")
	case !slices.Equal(a.fetchBuf, b.fetchBuf):
		return fmt.Errorf("fetch buffer changed")
	case !a.l1i.Equal(b.l1i) || !a.l1d.Equal(b.l1d):
		return fmt.Errorf("L1 caches changed")
	case !a.imshr.Equal(b.imshr) || !a.dmshr.Equal(b.dmshr):
		return fmt.Errorf("MSHR files changed")
	case !a.pred.Equal(b.pred):
		return fmt.Errorf("predictor changed")
	}
	return nil
}
