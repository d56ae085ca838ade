package core

import (
	"math"
	"math/bits"

	"slacksim/internal/isa"
)

// Derived scheduling state. It lets the issue and completion stages
// touch only the entries they can act on, so a cycle costs what it does,
// not what the ROB holds: a core whose full window waits on an L2 miss
// neither rescans it nor re-resolves its operands each cycle. The state
// is a pure function of the ROB window (see rebuildSched), so it is
// never snapshotted or serialized: every wholesale change of the window
// (Reset, restore, squash) rebuilds it, and the pipeline stages keep it
// current in between.
//
// Invariants, for every entry e in the window:
//
//   - rdy has e's bit iff e is stDispatched, not a sync/halt op, and
//     both operands are ready (operandsReady).
//   - wait has e's bit iff e is stDispatched, not a sync/halt op, and
//     some operand is not ready.
//   - deps of producer p has e's bit iff e is in wait and reads p, and p
//     is not yet done with its result.
//   - pst has e's bit iff e is a store in stDispatched: exactly the
//     stores whose address is still unknown (addrValid is false).
//   - iss has e's bit iff e is stIssued.
//   - nextDone <= doneAt of every stIssued entry (MaxInt64 when none).
//
// No bit is set outside the window: an entry leaves every mask before it
// can retire, and a squash rebuilds the state, so a reused seq starts
// clean.
type sched struct {
	rdy, wait, pst, iss seqMask
	// deps holds one seqMask per bit position: the waiting consumers of
	// the producer at that position (see depsOf).
	deps     []uint64
	nextDone int64
}

// seqMask is a bitmap indexed by ROB seq modulo its span (64 bits per
// word). The span is at least ROBSize and a power of two, so the live
// window's contiguous seqs map to distinct bits and a seq finds its bit
// with a mask rather than a division.
type seqMask []uint64

// schedWords returns the word count of a seqMask covering robSize seqs:
// ceil(robSize/64), rounded up to a power of two.
func schedWords(robSize int) int {
	w := (robSize + 63) / 64
	return 1 << bits.Len(uint(w-1))
}

// newSched allocates the scheduling state for a ROB of robSize entries.
func newSched(robSize int) sched {
	w := schedWords(robSize)
	m := make([]uint64, 4*w+64*w*w)
	return sched{
		rdy: m[:w:w], wait: m[w : 2*w : 2*w], pst: m[2*w : 3*w : 3*w], iss: m[3*w : 4*w : 4*w],
		deps: m[4*w:], nextDone: math.MaxInt64,
	}
}

//slacksim:hotpath
func (m seqMask) set(seq int) {
	p := seq & (len(m)<<6 - 1)
	m[p>>6] |= 1 << uint(p&63)
}

//slacksim:hotpath
func (m seqMask) unset(seq int) {
	p := seq & (len(m)<<6 - 1)
	m[p>>6] &^= 1 << uint(p&63)
}

// next returns the smallest window offset j in [k, n) whose entry's bit
// is set, or n when there is none. head is the seq at window offset 0:
// the scan starts at head's bit and wraps, which visits the window
// oldest first.
//
//slacksim:hotpath
func (m seqMask) next(head, k, n int) int {
	span := len(m) << 6
	for k < n {
		p := (head + k) & (span - 1)
		if w := m[p>>6] >> uint(p&63); w != 0 {
			if j := k + bits.TrailingZeros64(w); j < n {
				return j
			}
			return n
		}
		k += 64 - p&63
	}
	return n
}

// depsOf returns the consumer mask of the producer with the given seq.
//
//slacksim:hotpath
func (s *sched) depsOf(seq int) seqMask {
	w := len(s.rdy)
	p := seq & (w<<6 - 1)
	return s.deps[p*w : (p+1)*w]
}

// operandsReady reports whether both source operands of e can be read:
// each comes from the register file or from a producer that is done with
// its result.
//
//slacksim:hotpath
func (c *Core) operandsReady(e *robEntry) bool {
	for _, p := range e.srcProd {
		if p >= 0 && !c.produced(p) {
			return false
		}
	}
	return true
}

// produced reports whether the value of in-flight producer seq p can be
// read: it is done with its result, or it has left the window (committed
// to the register file).
//
//slacksim:hotpath
func (c *Core) produced(p int) bool {
	pe := c.bySeq(p)
	return pe == nil || (pe.state == stDone && pe.hasResult)
}

// schedule enters a stDispatched entry into the scheduling state.
//
//slacksim:hotpath
func (c *Core) schedule(e *robEntry) {
	switch e.inst.Op.Class() {
	case isa.ClassSync, isa.ClassHalt:
		return // executed at commit, never issued
	case isa.ClassStore:
		c.pst.set(e.seq)
	}
	ready := true
	for _, p := range e.srcProd {
		if p >= 0 && !c.produced(p) {
			c.depsOf(p).set(e.seq)
			ready = false
		}
	}
	if ready {
		c.rdy.set(e.seq)
	} else {
		c.wait.set(e.seq)
	}
}

// rebuildSched recomputes the scheduling state from the ROB window.
//
//slacksim:hotpath
func (c *Core) rebuildSched() {
	clear(c.rdy)
	clear(c.wait)
	clear(c.pst)
	clear(c.iss)
	clear(c.deps)
	c.nextDone = math.MaxInt64
	for _, e := range c.robs() {
		switch e.state {
		case stDispatched:
			c.schedule(e)
		case stIssued:
			c.iss.set(e.seq)
			c.nextDone = min(c.nextDone, e.doneAt)
		}
	}
}

// wake is called when producer p gets its result: each of its waiting
// consumers whose other operand is ready too moves to rdy.
//
//slacksim:hotpath
func (c *Core) wake(p *robEntry) {
	d := c.depsOf(p.seq)
	head := c.headSeq()
	span := len(d) << 6
	for i, w := range d {
		for ; w != 0; w &= w - 1 {
			k := ((i<<6 | bits.TrailingZeros64(w)) - head) & (span - 1)
			if e := c.rob[c.robHead+k]; c.operandsReady(e) {
				c.wait.unset(e.seq)
				c.rdy.set(e.seq)
			}
		}
	}
	clear(d)
}
