package core

import (
	"fmt"
	"math"

	"slacksim/internal/cache"
	"slacksim/internal/coherence"
	"slacksim/internal/event"
	"slacksim/internal/isa"
)

// Tick simulates one target clock cycle: message delivery from the
// manager, then the pipeline stages in reverse order so results flow with
// realistic timing, then the local clock advances. A halted core still
// ticks (idling) so the slack time protocol stays live until the engine
// retires it.
func (c *Core) Tick() {
	c.processInQ()
	if c.halted {
		c.stats.IdleAfterEnd++
	} else {
		c.commit()
		c.completeExec()
		c.issue()
		c.dispatch()
		c.fetch()
	}
	c.now++
	c.stats.Cycles++
	if afterTick != nil {
		afterTick(c)
	}
}

// afterTick, when set, runs at the end of every Tick. Only tests set it,
// to check the derived scheduling state after each cycle of a full run.
var afterTick func(*Core)

// processInQ consumes manager messages whose effect time has been reached,
// per the paper's InQ protocol (a core reads an entry out when its local
// time reaches the entry's timestamp). A head seen not yet due is held
// (see Core.inQHoldTS): until local time reaches its timestamp nothing
// behind it can be consumed either, so the locked poll is skipped.
//
//slacksim:hotpath
func (c *Core) processInQ() {
	if c.now < c.inQHoldTS && c.inQ.Gen() == c.inQHoldGen {
		return
	}
	for {
		msg, ok := c.inQ.PopIf(c.inQDue)
		if !ok {
			return
		}
		switch msg.Kind {
		case event.MsgReply:
			c.applyReply(msg)
		case event.MsgInval:
			c.applySnoop(msg)
		}
	}
}

// msgDue is the InQ pop predicate: a message is consumed once local time
// reaches its timestamp. Rejecting the head starts a hold on it; the
// predicate runs under the queue lock, so the generation read here is the
// one the head belongs to.
func (c *Core) msgDue(m event.Msg) bool {
	if m.TS <= c.now {
		return true
	}
	c.inQHoldTS, c.inQHoldGen = m.TS, c.inQ.Gen()
	return false
}

func (c *Core) applyReply(msg event.Msg) {
	if c.imshr.Lookup(msg.LineAddr) != nil {
		c.imshr.Release(msg.LineAddr)
		// Instruction lines are never dirty; victims are dropped silently.
		c.l1i.Insert(msg.LineAddr, msg.NewState)
		return
	}
	waiters := c.dmshr.Release(msg.LineAddr)
	victim := c.l1d.Insert(msg.LineAddr, msg.NewState)
	if victim.Valid && victim.Dirty {
		c.sendReq(coherence.BusWB, victim.LineAddr)
	}
	for _, seq := range waiters {
		e := c.bySeq(seq)
		if e == nil || e.state != stWaitMem {
			continue // squashed or already satisfied
		}
		if cache.LineAddr(e.addr) != msg.LineAddr {
			continue
		}
		if e.inst.Op == isa.Load {
			// Register values and memory data are fetched just before
			// execution (NetBurst-like), so the load reads the memory
			// image at completion time.
			e.result = c.mem.Read(e.addr)
			e.hasResult = true
		}
		e.state = stDone
		e.doneAt = c.now
		if writesDest(e.inst) {
			c.wake(e)
		}
	}
}

func (c *Core) applySnoop(msg event.Msg) {
	if c.l1d.State(msg.LineAddr).Valid() {
		// Before yielding the line, complete a non-speculative store that
		// already obtained write permission on it: hardware performs the
		// pending store and then transfers the line. Without this, a
		// heavily-contended line livelocks — every core's ownership fill
		// is revoked by the next core's queued snoop before the store at
		// the head of the ROB can commit.
		if c.robLen() > 0 {
			e := c.rob[c.robHead]
			if e.inst.Op == isa.Store && e.state == stDone && !e.written &&
				e.addrValid && cache.LineAddr(e.addr) == msg.LineAddr &&
				c.l1d.State(msg.LineAddr).CanWrite() {
				c.mem.Write(e.addr, e.storeVal)
				e.written = true
			}
		}
		c.l1d.SetState(msg.LineAddr, msg.NewState)
	}
	if c.l1i.State(msg.LineAddr).Valid() && msg.NewState == coherence.Invalid {
		c.l1i.SetState(msg.LineAddr, coherence.Invalid)
	}
}

// commit retires up to CommitWidth instructions from the head of the ROB.
// Synchronization instructions execute here, non-speculatively.
func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth && c.robLen() > 0; n++ {
		e := c.rob[c.robHead]
		switch e.inst.Op.Class() {
		case isa.ClassSync:
			if !c.commitSync(e) {
				return
			}
		case isa.ClassHalt:
			c.halted = true
		case isa.ClassStore:
			if e.state != stDone {
				return
			}
			if !c.commitStore(e) {
				return
			}
		default:
			if e.state != stDone {
				return
			}
			if e.hasResult && writesDest(e.inst) {
				c.regs[e.inst.Dst] = e.result
			}
		}
		c.retireHead(e)
		if c.halted {
			return
		}
	}
}

//slacksim:hotpath
func (c *Core) retireHead(e *robEntry) {
	if c.rec != nil {
		c.recordRetire(e)
	}
	c.rob[c.robHead] = nil
	c.robHead++
	if c.robHead == len(c.rob) {
		// Window empty: reset to the start of the backing array so the
		// full capacity is reusable and bySeq never walks a long prefix.
		c.rob = c.rob[:0]
		c.robHead = 0
	} else if c.robHead >= 32 && c.robHead*2 >= len(c.rob) {
		// Amortized compaction: copy the window down once the dead prefix
		// dominates, so the backing array stays bounded by ~2×ROBSize.
		n := copy(c.rob, c.rob[c.robHead:])
		clear(c.rob[n:])
		c.rob = c.rob[:n]
		c.robHead = 0
	}
	if c.mapTable[e.inst.Dst] == e.seq {
		c.mapTable[e.inst.Dst] = -1
	}
	if c.serializeSeq == e.seq {
		c.serializeSeq = -1
	}
	c.stats.Committed++
	switch e.inst.Op.Class() {
	case isa.ClassLoad:
		c.stats.Loads++
	case isa.ClassStore:
		c.stats.Stores++
	case isa.ClassBranch:
		c.stats.Branches++
	}
	c.freeEntry(e)
}

// commitSync executes a lock or barrier at the head of the ROB. It returns
// false while the operation must keep the core waiting (the core spins in
// target time: its clock keeps advancing, no commit happens).
func (c *Core) commitSync(e *robEntry) bool {
	switch e.inst.Op {
	case isa.LockAcq:
		if e.state == stDone {
			return true
		}
		c.stats.LockWait++
		if c.now < e.nextLockTry {
			return false
		}
		addr := c.regs[e.inst.Src1] + uint64(e.inst.Imm)
		if c.sync.TryLock(addr, c.cfg.ID, c.now) {
			e.state = stDone
			return true
		}
		c.stats.LockRetries++
		e.nextLockTry = c.now + c.cfg.LockRetryInterval
		return false
	case isa.LockRel:
		addr := c.regs[e.inst.Src1] + uint64(e.inst.Imm)
		c.sync.Unlock(addr, c.cfg.ID, c.now)
		return true
	case isa.Barrier:
		if !e.barrierArrived {
			e.barrierGen = c.sync.BarrierArrive(e.inst.Imm, c.cfg.ID, c.now)
			e.barrierArrived = true
		}
		if c.sync.BarrierPassed(e.inst.Imm, e.barrierGen, c.now) {
			return true
		}
		c.stats.BarrierWait++
		return false
	}
	panic(fmt.Sprintf("core %d: unknown sync op %v", c.cfg.ID, e.inst.Op))
}

// commitStore performs the architectural store: it needs write permission
// in the L1D (which a snoop may have stolen since the store executed); on
// a lost line it re-requests ownership and stalls commit.
func (c *Core) commitStore(e *robEntry) bool {
	if e.written {
		// The write was already performed when a snoop forced the line
		// away (see applySnoop); nothing left to do but retire.
		return true
	}
	line := cache.LineAddr(e.addr)
	st := c.l1d.State(line)
	if !st.CanWrite() {
		// A snoop stole the line between execution and commit: re-obtain
		// write permission. Merge into an outstanding miss on the line if
		// one exists (its reply wakes this store; a read-grade grant just
		// sends us around this loop once more); on a full MSHR file stay
		// retired-pending and retry next cycle.
		if entry, primary := c.dmshr.Allocate(line, true, e.seq, c.now); entry != nil {
			if primary {
				kind := coherence.RequestFor(st, true)
				if kind == coherence.BusNone {
					kind = coherence.BusRdX
				}
				c.sendReq(kind, line)
			}
			e.state = stWaitMem
		}
		return false
	}
	c.mem.Write(e.addr, e.storeVal)
	if st == coherence.Exclusive {
		c.l1d.SetState(line, coherence.Modified)
	}
	c.l1d.Probe(line, true) // touch LRU, count the write access
	return true
}

// completeExec marks issued instructions whose latency elapsed as done,
// wakes their consumers and resolves branches, flushing on
// mispredictions. Nothing can be due before the nextDone watermark, so
// until then the stage costs one comparison.
func (c *Core) completeExec() {
	if c.now < c.nextDone {
		return
	}
	next := int64(math.MaxInt64)
	n, head := c.robLen(), c.headSeq()
	for i := c.iss.next(head, 0, n); i < n; i = c.iss.next(head, i+1, n) {
		e := c.rob[c.robHead+i]
		if e.doneAt > c.now {
			next = min(next, e.doneAt)
			continue
		}
		e.state = stDone
		c.iss.unset(e.seq)
		if writesDest(e.inst) {
			c.wake(e)
		}
		if e.inst.Op.IsBranch() && !e.resolved {
			e.resolved = true
			c.pred.Update(e.pc, e.actualTaken)
			if e.actualTaken != e.predTaken {
				c.pred.Mispredicts++
				c.stats.Mispredicts++
				c.flushAfter(i)
				next := e.pc + 1
				if e.actualTaken {
					next = int(e.inst.Imm)
				}
				c.fetchPC = next
				c.fetchStallUntil = c.now + int64(c.cfg.MispredictPenalty)
				return // flushAfter rebuilt nextDone
			}
		}
	}
	c.nextDone = next
}

// flushAfter squashes every ROB entry younger than window index i and the
// entire fetch buffer, then rebuilds the map table and the scheduling
// state from the surviving entries. nextSeq rewinds to just past the
// youngest survivor so window seqs stay contiguous (the bySeq invariant);
// the rebuild clears the squashed entries' bits before their seqs are
// dispatched again. Reusing squashed seqs is safe: the only external
// holders of seqs are MSHR waiter lists, and a reused-seq entry waiting
// on the same line necessarily merged into the same outstanding MSHR
// entry, so a wakeup through the stale seq is a wakeup the entry was owed
// anyway (applyReply re-checks state and line).
func (c *Core) flushAfter(i int) {
	c.stats.Flushes++
	w := c.robs()
	for j := i + 1; j < len(w); j++ {
		e := w[j]
		if c.serializeSeq == e.seq {
			c.serializeSeq = -1
		}
		c.freeEntry(e)
		w[j] = nil
	}
	c.rob = c.rob[:c.robHead+i+1]
	c.nextSeq = w[i].seq + 1
	c.fetchBuf = c.fetchBuf[:0]
	for r := range c.mapTable {
		c.mapTable[r] = -1
	}
	for _, e := range c.robs() {
		if writesDest(e.inst) {
			c.mapTable[e.inst.Dst] = e.seq
		}
	}
	c.rebuildSched()
}

// issue selects up to IssueWidth ready instructions, oldest first, reads
// their operands and starts execution, modeling per-class functional-unit
// limits. It visits only the rdy entries: the rest cannot issue this
// cycle (sync/halt execute at commit).
func (c *Core) issue() {
	slots := c.cfg.IssueWidth
	memPorts := c.cfg.MemPortsPerCycle
	fpOps := c.cfg.FPopsPerCycle
	divs := c.cfg.DivsPerCycle
	n, head := c.robLen(), c.headSeq()
	for i := c.rdy.next(head, 0, n); i < n && slots > 0; i = c.rdy.next(head, i+1, n) {
		e := c.rob[c.robHead+i]
		cls := e.inst.Op.Class()
		switch cls {
		case isa.ClassNop:
			// Trivially done, without taking a slot.
			e.state = stDone
			e.doneAt = c.now
			c.rdy.unset(e.seq)
			continue
		case isa.ClassLoad, isa.ClassStore:
			if memPorts == 0 {
				continue
			}
			// Disambiguation: a load waits while any older store's
			// address is unknown. pst is read live, so a store issued
			// earlier in this pass no longer blocks.
			if cls == isa.ClassLoad && c.pst.next(head, 0, i) < i {
				continue
			}
		case isa.ClassFPAdd, isa.ClassFPMul:
			if fpOps == 0 {
				continue
			}
		case isa.ClassIntDiv, isa.ClassFPDiv:
			if divs == 0 {
				continue
			}
		}
		if !c.tryIssue(i, e) {
			continue
		}
		c.rdy.unset(e.seq)
		if cls == isa.ClassStore {
			c.pst.unset(e.seq)
		}
		if e.state == stIssued {
			c.iss.set(e.seq)
			c.nextDone = min(c.nextDone, e.doneAt)
		}
		slots--
		switch cls {
		case isa.ClassLoad, isa.ClassStore:
			memPorts--
		case isa.ClassFPAdd, isa.ClassFPMul:
			fpOps--
		case isa.ClassIntDiv, isa.ClassFPDiv:
			divs--
		}
	}
}

// tryIssue attempts to begin execution of rdy entry e (at index idx).
func (c *Core) tryIssue(idx int, e *robEntry) bool {
	useS1, useS2 := reads(e.inst)
	var a, b uint64
	if useS1 {
		a = c.operand(e, 0, e.inst.Src1)
	}
	if useS2 {
		b = c.operand(e, 1, e.inst.Src2)
	}
	switch e.inst.Op.Class() {
	case isa.ClassBranch:
		e.actualTaken = isa.BranchTaken(e.inst, a, b)
		e.state = stIssued
		e.doneAt = c.now + execLatency(isa.ClassBranch)
		return true
	case isa.ClassLoad:
		return c.issueLoad(idx, e, a)
	case isa.ClassStore:
		e.addr = a + uint64(e.inst.Imm)
		e.addrValid = true
		e.storeVal = b
		return c.issueStore(e)
	default:
		e.result = isa.ALUResult(e.inst, a, b)
		e.hasResult = true
		e.state = stIssued
		e.doneAt = c.now + execLatency(e.inst.Op.Class())
		return true
	}
}

// issueLoad executes a load: store-to-load forwarding, then L1D access
// with lock-up-free misses. The caller has checked that every older
// store's address is known (no older pst bit); the youngest older store
// to the same word forwards its value.
func (c *Core) issueLoad(idx int, e *robEntry, base uint64) bool {
	addr := base + uint64(e.inst.Imm)
	var fwd *robEntry
	rob := c.robs()
	for i := idx - 1; i >= 0; i-- {
		if s := rob[i]; s.inst.Op == isa.Store && s.addr == addr {
			fwd = s
			break
		}
	}
	e.addr = addr
	e.addrValid = true
	if fwd != nil {
		e.result = fwd.storeVal
		e.hasResult = true
		e.state = stIssued
		e.doneAt = c.now + 1 // forwarding latency
		return true
	}
	line := cache.LineAddr(addr)
	if c.l1d.Probe(line, false) {
		e.result = c.mem.Read(addr)
		e.hasResult = true
		e.state = stIssued
		e.doneAt = c.now + int64(c.l1d.Latency())
		return true
	}
	entry, primary := c.dmshr.Allocate(line, false, e.seq, c.now)
	if entry == nil {
		return false // MSHR file full; retry next cycle
	}
	if primary {
		c.sendReq(coherence.BusRd, line)
	}
	e.state = stWaitMem
	return true
}

// issueStore computes the store's address and value and obtains write
// permission; the architectural write happens at commit.
func (c *Core) issueStore(e *robEntry) bool {
	line := cache.LineAddr(e.addr)
	st := c.l1d.State(line)
	if st.CanWrite() {
		e.state = stIssued
		e.doneAt = c.now + execLatency(isa.ClassStore)
		return true
	}
	entry, primary := c.dmshr.Allocate(line, true, e.seq, c.now)
	if entry == nil {
		e.addrValid = false // retry whole issue next cycle
		return false
	}
	if primary {
		kind := coherence.RequestFor(st, true)
		if kind == coherence.BusNone {
			kind = coherence.BusRdX
		}
		c.sendReq(kind, line)
	}
	e.state = stWaitMem
	return true
}

// dispatch moves instructions from the fetch buffer into the ROB,
// recording operand producers (renaming). Sync and halt instructions
// serialize: nothing younger dispatches until they commit.
func (c *Core) dispatch() {
	k := 0
	for n := 0; n < c.cfg.IssueWidth && k < len(c.fetchBuf) && c.robLen() < c.cfg.ROBSize; n++ {
		if c.serializeSeq >= 0 {
			break
		}
		f := c.fetchBuf[k]
		k++
		e := c.allocEntry()
		*e = robEntry{
			seq: c.nextSeq, pc: f.pc, inst: f.inst, state: stDispatched,
			predTaken: f.predTaken, srcProd: [2]int{-1, -1},
		}
		c.nextSeq++
		useS1, useS2 := reads(f.inst)
		if useS1 {
			e.srcProd[0] = c.mapTable[f.inst.Src1]
		}
		if useS2 {
			e.srcProd[1] = c.mapTable[f.inst.Src2]
		}
		if writesDest(f.inst) {
			c.mapTable[f.inst.Dst] = e.seq
		}
		if f.inst.Op.IsSync() || f.inst.Op == isa.Halt {
			c.serializeSeq = e.seq
		}
		c.rob = append(c.rob, e)
		c.schedule(e)
	}
	if k > 0 {
		c.fetchBuf = c.fetchBuf[:copy(c.fetchBuf, c.fetchBuf[k:])]
	}
}

// fetch brings up to FetchWidth instructions into the fetch buffer,
// predicting branch directions; it stalls on I-cache misses and after
// mispredict redirects.
func (c *Core) fetch() {
	if c.now < c.fetchStallUntil {
		return
	}
	for n := 0; n < c.cfg.FetchWidth && len(c.fetchBuf) < c.cfg.FetchBufSize; n++ {
		pc := c.fetchPC
		line := c.codeLine(pc)
		if c.imshr.Lookup(line) != nil {
			return // miss outstanding
		}
		if !c.l1i.Probe(line, false) {
			if _, primary := c.imshr.Allocate(line, false, -1, c.now); primary {
				c.sendReq(coherence.BusIFetch, line)
			}
			return
		}
		in := c.prog.At(pc)
		f := fetched{pc: pc, inst: in}
		next := pc + 1
		if in.Op.IsBranch() {
			if in.Op == isa.Jmp {
				f.predTaken = true
			} else {
				f.predTaken = c.pred.Predict(pc)
			}
			if f.predTaken {
				next = int(in.Imm)
			}
		}
		c.fetchBuf = append(c.fetchBuf, f)
		c.fetchPC = next
		if in.Op == isa.Halt || in.Op.IsSync() {
			return // do not fetch past serializing instructions this cycle
		}
		if f.predTaken {
			return // taken branch ends the fetch group
		}
	}
}
