package core

import "slacksim/internal/isa"

// Quiet ticks. The paper's cores keep spinning in target time while they
// wait on a lock, a barrier or a miss, and the host pays for every such
// cycle. A tick whose stages provably change nothing but the clock and
// one wait counter — a quiet tick — costs O(1) instead: after a tick
// that committed and dispatched nothing, deriveQuiet checks that every
// stage is blocked and sets a horizon, quietUntil, before which only an
// event from outside the core can unblock one. Within the horizon Tick
// re-checks those outside events (stillQuiet) and skips the stages.
//
// The horizon is the minimum of the internal timers that can end the
// wait: the completion watermark nextDone, the head lock's nextLockTry,
// and fetchStallUntil when only the stall blocks fetch. The InQ hold
// needs no bound of its own: stillQuiet re-checks it every tick. Until
// the horizon, with the InQ still empty or held:
//
//   - processInQ pops nothing (the InQ is empty or its head is held);
//   - commit retires nothing: the head is not done, is a lock acquire
//     before its retry time (LockWait counts the tick), or is a barrier
//     not yet passed (BarrierWait counts it), and only a release moves a
//     barrier (the controller's release counter says whether one has);
//   - completeExec completes nothing (now < nextDone);
//   - issue has no rdy entry to visit;
//   - dispatch is blocked (empty fetch buffer, full ROB or a serializing
//     op in flight) and fetch is blocked (stall, full buffer, or an
//     I-cache miss outstanding).
//
// Like the scheduling state, the horizon is derived: it is never
// snapshotted or serialized, and Reset and every restore clear it.

// quietKind names the wait counter a quiet tick bumps.
type quietKind uint8

const (
	quietMem     quietKind = iota // a miss or a latency: no wait counter
	quietLock                     // lock acquire at the head: LockWait
	quietBarrier                  // barrier at the head: BarrierWait
)

// quiet is the quiet-tick state kept on Core.
type quiet struct {
	// quietUntil is the horizon: ticks before it are quiet while
	// stillQuiet holds. Zero means none.
	quietUntil int64
	quietWait  quietKind
	// quietReleases is the barrier release counter read before the
	// barrier at the head was seen not passed (barrier waits only).
	quietReleases uint64
}

// stillQuiet re-checks, for a tick inside the horizon, what other cores
// and the manager can change: the InQ must still be empty or held, and a
// barrier wait must see no release since the horizon was derived.
//
//slacksim:hotpath
func (c *Core) stillQuiet() bool {
	if c.inQ.Len() != 0 && (c.now >= c.inQHoldTS || c.inQ.Gen() != c.inQHoldGen) {
		return false
	}
	return c.quietWait != quietBarrier || c.sync.BarrierReleases() == c.quietReleases
}

// deriveQuiet sets the quiet horizon for the ticks from now on, or
// leaves none when some stage can act at now. It runs after a tick that
// committed and dispatched nothing (a busy tick pays only that test), on
// a core that is not halted.
//
//slacksim:hotpath
func (c *Core) deriveQuiet() {
	t := c.now
	until := c.nextDone
	if until <= t {
		return
	}
	for _, w := range c.rdy {
		if w != 0 {
			return
		}
	}
	if len(c.fetchBuf) > 0 && c.robLen() < c.cfg.ROBSize && c.serializeSeq < 0 {
		return
	}
	wait := quietMem
	var releases uint64
	if c.robLen() > 0 {
		e := c.rob[c.robHead]
		switch {
		case e.state == stDone, e.inst.Op == isa.Halt, e.inst.Op == isa.LockRel:
			return
		case e.inst.Op == isa.LockAcq:
			if t >= e.nextLockTry {
				return
			}
			until = min(until, e.nextLockTry)
			wait = quietLock
		case e.inst.Op == isa.Barrier:
			if !e.barrierArrived {
				return
			}
			// Read the counter first: a release after the read moves it,
			// one before it shows in BarrierPassed. A release at t-1 or t
			// passes at t or t+1, so checking both covers a barrier that
			// has moved but does not pass yet. (Only on the parallel host
			// can a release land between this core's commit check and
			// this read with the release time t.)
			releases = c.sync.BarrierReleases()
			if c.sync.BarrierPassed(e.inst.Imm, e.barrierGen, t) ||
				c.sync.BarrierPassed(e.inst.Imm, e.barrierGen, t+1) {
				return
			}
			wait = quietBarrier
		}
	}
	if len(c.fetchBuf) < c.cfg.FetchBufSize && c.imshr.Lookup(c.codeLine(c.fetchPC)) == nil {
		// Only the mispredict stall can block fetch.
		if t >= c.fetchStallUntil {
			return
		}
		until = min(until, c.fetchStallUntil)
	}
	if c.inQ.Len() != 0 && (t >= c.inQHoldTS || c.inQ.Gen() != c.inQHoldGen) {
		return
	}
	c.quietUntil, c.quietWait, c.quietReleases = until, wait, releases
}

// quietTick is a tick inside the horizon: the clock and the recorded
// wait counter advance, nothing else changes.
//
//slacksim:hotpath
func (c *Core) quietTick() {
	c.now++
	c.stats.Cycles++
	switch c.quietWait {
	case quietLock:
		c.stats.LockWait++
	case quietBarrier:
		c.stats.BarrierWait++
	}
}
