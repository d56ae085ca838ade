package core

import (
	"fmt"

	"slacksim/internal/cache"
	"slacksim/internal/coherence"
	"slacksim/internal/event"
	"slacksim/internal/isa"
	"slacksim/internal/mem"
	"slacksim/internal/syncctl"
)

// entryState tracks an in-flight instruction through the back end.
type entryState uint8

const (
	stDispatched entryState = iota // in ROB, not yet issued
	stIssued                       // executing; done at doneAt
	stWaitMem                      // waiting for a memory-system reply
	stDone                         // result ready; eligible to commit
)

// robEntry is one in-flight instruction.
type robEntry struct {
	seq   int
	pc    int
	inst  isa.Inst
	state entryState

	// srcProd holds the ROB seq of each source operand's producer, or -1
	// when the value comes from the architectural register file.
	srcProd [2]int

	doneAt    int64
	result    uint64
	hasResult bool

	// Branch bookkeeping.
	predTaken   bool
	actualTaken bool
	resolved    bool

	// Memory bookkeeping.
	addr      uint64
	addrValid bool
	storeVal  uint64
	// written marks a store whose architectural write was performed early
	// because a snoop took the line (see applySnoop).
	written bool

	// Synchronization bookkeeping.
	barrierGen     uint64
	barrierArrived bool
	nextLockTry    int64
}

type fetched struct {
	pc        int
	inst      isa.Inst
	predTaken bool
}

// Stats aggregates per-core performance counters. The json tags are part
// of the stable Results serialization contract (see engine.Results).
type Stats struct {
	Cycles       int64  `json:"cycles"`
	Committed    uint64 `json:"committed"`
	Loads        uint64 `json:"loads"`
	Stores       uint64 `json:"stores"`
	Branches     uint64 `json:"branches"`
	Mispredicts  uint64 `json:"mispredicts"`
	Flushes      uint64 `json:"flushes"`
	LockRetries  uint64 `json:"lock_retries"`
	BarrierWait  int64  `json:"barrier_wait"`   // cycles spent with a barrier op stalled at head
	LockWait     int64  `json:"lock_wait"`      // cycles spent with a lock op stalled at head
	IdleAfterEnd int64  `json:"idle_after_end"` // cycles ticked after Halt committed
}

// CPI returns cycles per committed instruction (0 when nothing committed).
func (s Stats) CPI() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Committed)
}

// Core is one simulated out-of-order core with its private L1 caches.
// It is single-goroutine state: exactly one host thread (its core thread)
// may call Tick; cross-thread communication happens only through the
// OutQ/InQ event queues and the syncctl controller, mirroring SlackSim.
type Core struct {
	cfg  Config
	prog *isa.Program
	mem  *mem.Memory
	sync *syncctl.Controller

	outQ *event.Shard[event.Request]
	inQ  *event.Queue[event.Msg]

	l1i, l1d *cache.Cache
	imshr    *cache.MSHRFile
	dmshr    *cache.MSHRFile
	pred     *Predictor

	now  int64
	regs [isa.NumRegs]uint64

	// mapTable maps an architectural register to the seq of the youngest
	// in-flight producer, or -1.
	mapTable [isa.NumRegs]int

	// rob is a head-index deque: the live window is rob[robHead:], so
	// retiring the head is an index bump that keeps the slice's capacity
	// (append-per-dispatch stops allocating once the backing array has
	// grown to the ROB size). Window seqs are contiguous — dispatch
	// appends nextSeq++, commit pops the head, a squash truncates the
	// tail and rewinds nextSeq — so seq lookup is index arithmetic off
	// the head entry's seq (see bySeq) and no seq→entry map is needed.
	rob      []*robEntry
	robHead  int
	nextSeq  int
	fetchBuf []fetched

	fetchPC         int
	fetchStallUntil int64
	// serializeSeq is the seq of an in-flight sync/halt instruction; while
	// set, dispatch is blocked (sync ops execute non-speculatively at the
	// head of the ROB).
	serializeSeq int

	halted bool
	reqID  uint64

	// inQHold caches that the InQ head is a message not due before
	// inQHoldTS, observed under the queue's restore generation inQHoldGen.
	// Only this core pops its InQ, so until local time reaches inQHoldTS
	// (or a Restore bumps the generation) the head cannot change and
	// processInQ skips the locked poll. Zero means no hold. Not part of
	// the core's state: every restore clears it.
	inQHoldTS  int64
	inQHoldGen uint64
	// inQDue is msgDue bound once at construction, so the per-tick poll
	// passes a predicate without building a closure.
	inQDue func(event.Msg) bool

	// rec, when set, receives the in-order architectural retire stream
	// (see recorder.go). Nil outside recording runs: one predictable
	// branch on the retire path.
	rec OpRecorder

	stats Stats

	// sched is the scheduling state derived from the ROB window (see
	// sched.go); not part of the snapshot.
	sched

	// freeList recycles robEntry allocations: dispatch pops from it and
	// retire/flush/restore push onto it, so the steady-state pipeline
	// allocates no entries at all. Safe because entries are referenced
	// only through the rob window, which drops an entry before it is
	// freed.
	freeList []*robEntry
}

//slacksim:hotpath
//slacksim:pooled
func (c *Core) allocEntry() *robEntry {
	if n := len(c.freeList); n > 0 {
		e := c.freeList[n-1]
		c.freeList = c.freeList[:n-1]
		return e
	}
	return new(robEntry) //lint:allow hotpathalloc -- pool warm-up: runs only while the free list is empty
}

//slacksim:hotpath
func (c *Core) freeEntry(e *robEntry) {
	c.freeList = append(c.freeList, e) //lint:allow hotpathalloc -- free-list growth is bounded by ROB size, then reused forever
}

// New builds a core executing prog against the shared memory image and
// synchronization controller, communicating through outQ (to the manager)
// and inQ (from the manager).
func New(cfg Config, prog *isa.Program, m *mem.Memory, sc *syncctl.Controller,
	outQ *event.Shard[event.Request], inQ *event.Queue[event.Msg]) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	c := &Core{
		cfg:   cfg,
		prog:  prog,
		mem:   m,
		sync:  sc,
		outQ:  outQ,
		inQ:   inQ,
		l1i:   cache.New(cfg.L1I),
		l1d:   cache.New(cfg.L1D),
		imshr: cache.NewMSHRFile(cfg.InstMSHRs),
		dmshr: cache.NewMSHRFile(cfg.DataMSHRs),
		pred:  NewPredictor(cfg.BimodalEntries),

		serializeSeq: -1,
		sched:        newSched(cfg.ROBSize),
	}
	for i := range c.mapTable {
		c.mapTable[i] = -1
	}
	c.inQDue = c.msgDue
	return c, nil
}

// MustNew is New but panics on error, for static configurations.
func MustNew(cfg Config, prog *isa.Program, m *mem.Memory, sc *syncctl.Controller,
	outQ *event.Shard[event.Request], inQ *event.Queue[event.Msg]) *Core {
	c, err := New(cfg, prog, m, sc, outQ, inQ)
	if err != nil {
		panic(err)
	}
	return c
}

// Reset returns the core to its freshly-constructed state running prog,
// keeping the configuration, shared-structure wiring, and every pooled
// backing (ROB free list, cache arrays, MSHR waiter arenas, predictor
// table). Used when a pooled machine is recycled for a new run.
func (c *Core) Reset(prog *isa.Program) error {
	if err := prog.Validate(); err != nil {
		return err
	}
	c.prog = prog
	c.l1i.Reset()
	c.l1d.Reset()
	c.imshr.Reset()
	c.dmshr.Reset()
	c.pred.Reset()
	c.now = 0
	c.regs = [isa.NumRegs]uint64{}
	for i := range c.mapTable {
		c.mapTable[i] = -1
	}
	for _, e := range c.robs() {
		c.freeEntry(e)
	}
	clear(c.rob)
	c.rob = c.rob[:0]
	c.robHead = 0
	c.nextSeq = 0
	c.rebuildSched()
	c.fetchBuf = c.fetchBuf[:0]
	c.fetchPC = 0
	c.fetchStallUntil = 0
	c.serializeSeq = -1
	c.halted = false
	c.reqID = 0
	c.inQHoldTS = 0
	c.rec = nil
	c.stats = Stats{}
	return nil
}

// ID returns the core's index.
func (c *Core) ID() int { return c.cfg.ID }

// Now returns the core's local time in cycles.
func (c *Core) Now() int64 { return c.now }

// Halted reports whether the program has committed its Halt.
func (c *Core) Halted() bool { return c.halted }

// Stats returns a copy of the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// Committed returns the committed instruction count without copying the
// whole Stats block (pacing loops read it every step).
func (c *Core) Committed() uint64 { return c.stats.Committed }

// L1I and L1D expose the caches for stats and tests.
func (c *Core) L1I() *cache.Cache { return c.l1i }

// L1D returns the data cache.
func (c *Core) L1D() *cache.Cache { return c.l1d }

// Reg returns the architectural value of register r (committed state).
func (c *Core) Reg(r isa.Reg) uint64 { return c.regs[r] }

// robs returns the live ROB window, oldest first.
//
//slacksim:hotpath
func (c *Core) robs() []*robEntry { return c.rob[c.robHead:] }

// robLen returns the number of in-flight ROB entries.
//
//slacksim:hotpath
func (c *Core) robLen() int { return len(c.rob) - c.robHead }

// headSeq returns the seq at window offset 0: the oldest in-flight
// entry's, or the next one to dispatch when the window is empty.
//
//slacksim:hotpath
func (c *Core) headSeq() int {
	if c.robHead < len(c.rob) {
		return c.rob[c.robHead].seq
	}
	return c.nextSeq
}

// bySeq returns the in-flight entry with the given seq, or nil when that
// seq has committed, been squashed, or never dispatched. Window seqs are
// contiguous (see the rob field comment), so the lookup is bounds-checked
// index arithmetic off the head entry.
//
//slacksim:hotpath
func (c *Core) bySeq(seq int) *robEntry {
	if c.robHead >= len(c.rob) {
		return nil
	}
	first := c.rob[c.robHead].seq
	if seq < first {
		return nil
	}
	i := c.robHead + (seq - first)
	if i >= len(c.rob) {
		return nil
	}
	return c.rob[i]
}

// InFlight returns the number of ROB entries, for tests.
func (c *Core) InFlight() int { return c.robLen() }

func (c *Core) codeLine(pc int) uint64 {
	return cache.LineAddr(c.cfg.CodeBase + uint64(pc)*isa.InstBytes)
}

func (c *Core) sendReq(kind coherence.BusReq, lineAddr uint64) uint64 {
	c.reqID++
	c.outQ.Push(event.Request{
		ID: c.reqID, Core: c.cfg.ID, Kind: kind, LineAddr: lineAddr, TS: c.now,
	})
	return c.reqID
}

// reads reports which source registers the instruction consumes in the
// out-of-order back end (sync ops read their base register at commit,
// architecturally, so they report none here). It depends on the opcode
// alone and runs at dispatch and issue, so it is a table lookup.
func reads(in isa.Inst) (useS1, useS2 bool) {
	r := opReads[in.Op]
	return r&1 != 0, r&2 != 0
}

// opReads holds readsOf for every Op value: bit 0 for Src1, bit 1 for
// Src2.
var opReads = func() (t [256]uint8) {
	for i := range t {
		s1, s2 := readsOf(isa.Op(i))
		if s1 {
			t[i] |= 1
		}
		if s2 {
			t[i] |= 2
		}
	}
	return t
}()

// readsOf computes reads for opcode op.
func readsOf(op isa.Op) (useS1, useS2 bool) {
	switch op.Class() {
	case isa.ClassIntALU, isa.ClassIntMul, isa.ClassIntDiv,
		isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv:
		switch op {
		case isa.Lui:
			return false, false
		case isa.Addi, isa.Andi, isa.Ori, isa.Xori, isa.Shli, isa.Shri,
			isa.Slti, isa.FSqrt, isa.FNeg, isa.Itof, isa.Ftoi:
			return true, false
		}
		return true, true
	case isa.ClassLoad:
		return true, false
	case isa.ClassStore:
		return true, true
	case isa.ClassBranch:
		if op == isa.Jmp {
			return false, false
		}
		return true, true
	}
	return false, false
}

// writesDest reports whether the instruction produces a register result
// (writes to r0 are architectural no-ops and are not renamed).
func writesDest(in isa.Inst) bool {
	switch in.Op.Class() {
	case isa.ClassIntALU, isa.ClassIntMul, isa.ClassIntDiv,
		isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv, isa.ClassLoad:
		return in.Dst != isa.Zero
	}
	return false
}

// operand resolves source i of e, whose operands must be ready (e is in
// rdy): the producer's result if it is still in flight, the architectural
// register otherwise (a producer that committed after e dispatched left
// its value in the register file).
func (c *Core) operand(e *robEntry, i int, reg isa.Reg) uint64 {
	if p := e.srcProd[i]; p >= 0 {
		if pe := c.bySeq(p); pe != nil {
			return pe.result
		}
	}
	return c.regs[reg]
}

func (c *Core) String() string {
	return fmt.Sprintf("core%d{t=%d pc=%d rob=%d halted=%v}",
		c.cfg.ID, c.now, c.fetchPC, c.robLen(), c.halted)
}
