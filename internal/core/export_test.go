package core

import (
	"fmt"
	"slices"
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
