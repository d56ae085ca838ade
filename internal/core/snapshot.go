package core

import (
	"slacksim/internal/cache"
	"slacksim/internal/isa"
)

// Snapshot is a deep copy of a core's architectural and micro-architectural
// state, the core's contribution to a global simulation checkpoint. The
// paper checkpoints whole simulator processes with fork(); inside a single
// Go process the equivalent is an explicit deep copy, which exposes the
// same cost structure (cost grows with live state and checkpoint
// frequency). The shared event queues and memory image are checkpointed by
// the engine, not here.
type Snapshot struct {
	now      int64
	regs     [isa.NumRegs]uint64
	mapTable [isa.NumRegs]int
	rob      []robEntry
	fetchBuf []fetched

	fetchPC         int
	fetchStallUntil int64
	serializeSeq    int
	nextSeq         int
	halted          bool
	reqID           uint64
	stats           Stats

	l1i, l1d *cache.Cache
	imshr    *cache.MSHRFile
	dmshr    *cache.MSHRFile
	pred     *Predictor
}

// Snapshot captures the core's complete state.
func (c *Core) Snapshot() *Snapshot {
	s := &Snapshot{
		now:             c.now,
		regs:            c.regs,
		mapTable:        c.mapTable,
		fetchPC:         c.fetchPC,
		fetchStallUntil: c.fetchStallUntil,
		serializeSeq:    c.serializeSeq,
		nextSeq:         c.nextSeq,
		halted:          c.halted,
		reqID:           c.reqID,
		stats:           c.stats,
		l1i:             c.l1i.Snapshot(),
		l1d:             c.l1d.Snapshot(),
		imshr:           c.imshr.Snapshot(),
		dmshr:           c.dmshr.Snapshot(),
		pred:            c.pred.Snapshot(),
	}
	s.rob = make([]robEntry, c.robLen())
	for i, e := range c.robs() {
		s.rob[i] = *e
	}
	s.fetchBuf = append([]fetched(nil), c.fetchBuf...)
	return s
}

// SnapshotInto captures the core's complete state into s, reusing s's
// ROB/fetch backings and component graphs — the pooled-snapshot-graph
// variant of Snapshot. A zero Snapshot is populated on first use (pool
// warm-up); after that nothing is reallocated.
func (c *Core) SnapshotInto(s *Snapshot) {
	s.now = c.now
	s.regs = c.regs
	s.mapTable = c.mapTable
	s.fetchPC = c.fetchPC
	s.fetchStallUntil = c.fetchStallUntil
	s.serializeSeq = c.serializeSeq
	s.nextSeq = c.nextSeq
	s.halted = c.halted
	s.reqID = c.reqID
	s.stats = c.stats
	s.rob = s.rob[:0]
	for _, e := range c.robs() {
		s.rob = append(s.rob, *e)
	}
	s.fetchBuf = append(s.fetchBuf[:0], c.fetchBuf...)
	if s.l1i == nil {
		s.l1i, s.l1d = c.l1i.Snapshot(), c.l1d.Snapshot()         //lint:allow hotpathalloc -- one-time pool warm-up; later boundaries reuse the caches in place
		s.imshr, s.dmshr = c.imshr.Snapshot(), c.dmshr.Snapshot() //lint:allow hotpathalloc -- one-time pool warm-up; see above
		s.pred = c.pred.Snapshot()                                //lint:allow hotpathalloc -- one-time pool warm-up; see above
		return
	}
	c.l1i.SnapshotInto(s.l1i)
	c.l1d.SnapshotInto(s.l1d)
	c.imshr.SnapshotInto(s.imshr)
	c.dmshr.SnapshotInto(s.dmshr)
	c.pred.SnapshotInto(s.pred)
}

// restoreScalars copies everything except the cache/MSHR/predictor
// structures, recycling the live ROB entries through the freelist so a
// restore allocates nothing once the pools are warm, then rebuilds the
// derived scheduling state from the restored window.
//
//slacksim:hotpath
func (c *Core) restoreScalars(s *Snapshot) {
	c.now = s.now
	c.regs = s.regs
	c.mapTable = s.mapTable
	c.fetchPC = s.fetchPC
	c.fetchStallUntil = s.fetchStallUntil
	c.serializeSeq = s.serializeSeq
	c.nextSeq = s.nextSeq
	c.halted = s.halted
	c.reqID = s.reqID
	c.stats = s.stats
	c.inQHoldTS = 0
	c.quiet = quiet{}

	for _, e := range c.robs() {
		c.freeEntry(e)
	}
	clear(c.rob)
	c.rob = c.rob[:0]
	c.robHead = 0
	for i := range s.rob {
		e := c.allocEntry()
		*e = s.rob[i]
		c.rob = append(c.rob, e)
	}
	c.rebuildSched()
	c.fetchBuf = append(c.fetchBuf[:0], s.fetchBuf...)
}

// Restore overwrites the core's state from a snapshot taken on the same
// core.
//
//slacksim:hotpath
func (c *Core) Restore(s *Snapshot) {
	c.restoreScalars(s)
	c.l1i.Restore(s.l1i)
	c.l1d.Restore(s.l1d)
	c.imshr.Restore(s.imshr)
	c.dmshr.Restore(s.dmshr)
	c.pred.Restore(s.pred)
}

// StartTracking begins dirty tracking in the core's caches for
// incremental checkpoints; the caller takes a full Snapshot at the same
// instant.
func (c *Core) StartTracking() {
	c.l1i.StartTracking()
	c.l1d.StartTracking()
}

// SyncSnapshot brings s (a full Snapshot kept current since tracking
// started) up to date with the live core, copying only cache sets and
// MSHR files touched since the last sync or restore. The ROB and fetch
// buffer churn every cycle, so they are always copied — into s's reused
// backing arrays.
//
//slacksim:hotpath
func (c *Core) SyncSnapshot(s *Snapshot) {
	s.now = c.now
	s.regs = c.regs
	s.mapTable = c.mapTable
	s.fetchPC = c.fetchPC
	s.fetchStallUntil = c.fetchStallUntil
	s.serializeSeq = c.serializeSeq
	s.nextSeq = c.nextSeq
	s.halted = c.halted
	s.reqID = c.reqID
	s.stats = c.stats

	s.rob = s.rob[:0]
	for _, e := range c.robs() {
		s.rob = append(s.rob, *e)
	}
	s.fetchBuf = append(s.fetchBuf[:0], c.fetchBuf...)

	c.l1i.SyncSnapshot(s.l1i)
	c.l1d.SyncSnapshot(s.l1d)
	c.imshr.SyncSnapshot(s.imshr)
	c.dmshr.SyncSnapshot(s.dmshr)
	c.pred.SyncSnapshot(s.pred)
}

// RestoreIncremental rolls the core back to s, undoing only cache sets
// and MSHR state touched since the last sync.
//
//slacksim:hotpath
func (c *Core) RestoreIncremental(s *Snapshot) {
	c.restoreScalars(s)
	c.l1i.RestoreDirty(s.l1i)
	c.l1d.RestoreDirty(s.l1d)
	c.imshr.RestoreDirty(s.imshr)
	c.dmshr.RestoreDirty(s.dmshr)
	c.pred.Restore(s.pred)
}

// StateEqual reports whether two cores (same configuration, typically in
// different machines driven by the same run) hold identical architectural
// and micro-architectural state. Used by checkpoint-equivalence tests.
func (c *Core) StateEqual(o *Core) bool {
	if c.now != o.now || c.regs != o.regs || c.mapTable != o.mapTable ||
		c.fetchPC != o.fetchPC || c.fetchStallUntil != o.fetchStallUntil ||
		c.serializeSeq != o.serializeSeq || c.nextSeq != o.nextSeq ||
		c.halted != o.halted || c.reqID != o.reqID || c.stats != o.stats ||
		c.robLen() != o.robLen() || len(c.fetchBuf) != len(o.fetchBuf) {
		return false
	}
	cw, ow := c.robs(), o.robs()
	for i := range cw {
		if *cw[i] != *ow[i] {
			return false
		}
	}
	for i := range c.fetchBuf {
		if c.fetchBuf[i] != o.fetchBuf[i] {
			return false
		}
	}
	return c.l1i.Equal(o.l1i) && c.l1d.Equal(o.l1d) &&
		c.imshr.Equal(o.imshr) && c.dmshr.Equal(o.dmshr) &&
		c.pred.Equal(o.pred)
}

// StateWords estimates the snapshot's size in 64-bit words, for the
// checkpoint cost model.
func (s *Snapshot) StateWords() int {
	return len(s.rob)*16 + len(s.fetchBuf)*3 +
		s.l1i.StateWords() + s.l1d.StateWords() +
		2*isa.NumRegs + 64
}
