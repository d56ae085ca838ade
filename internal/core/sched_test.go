package core

import (
	"math/rand"
	"testing"

	"slacksim/internal/isa"
)

// TestSeqMaskNextMatchesNaive checks the window-order bit scan against a
// plain walk for one, two and four-word masks, with windows that start
// anywhere in the span and wrap around its end.
func TestSeqMaskNextMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, words := range []int{1, 2, 4} {
		span := words * 64
		for trial := 0; trial < 2000; trial++ {
			m := make(seqMask, words)
			head := rng.Intn(10 * span)
			n := rng.Intn(span + 1)
			for j := 0; j < n; j++ {
				if rng.Intn(4) == 0 {
					m.set(head + j)
				}
			}
			for k := 0; k <= n; k++ {
				want := n
				for j := k; j < n; j++ {
					p := (head + j) % span
					if m[p/64]>>(p%64)&1 != 0 {
						want = j
						break
					}
				}
				if got := m.next(head, k, n); got != want {
					t.Fatalf("words=%d head=%d n=%d k=%d: next=%d, want %d", words, head, n, k, got, want)
				}
			}
		}
	}
}

func TestSchedWords(t *testing.T) {
	for _, c := range []struct{ rob, words int }{{1, 1}, {8, 1}, {64, 1}, {65, 2}, {96, 2}, {128, 2}, {129, 4}, {200, 4}} {
		if got := schedWords(c.rob); got != c.words {
			t.Errorf("schedWords(%d) = %d, want %d", c.rob, got, c.words)
		}
	}
}

// stageCore returns a harness core whose fetch buffer holds insts, with
// r3 = 0x2000 and r4 = 77 in the register file. Tests drive the pipeline
// stages directly from there.
func stageCore(t *testing.T, insts ...isa.Inst) *Core {
	t.Helper()
	c := newHarness(t, func(b *isa.Builder) { b.Halt() }).core
	c.regs[3], c.regs[4] = 0x2000, 77
	for i, in := range insts {
		c.fetchBuf = append(c.fetchBuf, fetched{pc: i, inst: in})
	}
	for len(c.fetchBuf) > 0 {
		c.dispatch()
	}
	return c
}

func checkSched(t *testing.T, c *Core) {
	t.Helper()
	if err := c.SchedError(); err != nil {
		t.Fatal(err)
	}
}

func TestOlderStoreIssuingInSamePassUnblocksLoad(t *testing.T) {
	c := stageCore(t,
		isa.Inst{Op: isa.Store, Src1: 3, Src2: 4},
		isa.Inst{Op: isa.Load, Dst: 5, Src1: 3},
	)
	c.issue()
	checkSched(t, c)
	st, ld := c.rob[0], c.rob[1]
	if st.state == stDispatched || ld.state == stDispatched {
		t.Fatalf("store %d / load %d: both should issue in one pass", st.state, ld.state)
	}
	if !ld.hasResult || ld.result != 77 {
		t.Fatalf("load did not forward the store's value: %+v", *ld)
	}
}

func TestStoreWithUnknownAddressBlocksYoungerLoad(t *testing.T) {
	c := stageCore(t,
		isa.Inst{Op: isa.Mul, Dst: 6, Src1: 3, Src2: 3},
		isa.Inst{Op: isa.Store, Src1: 6, Src2: 4}, // address waits on the mul
		isa.Inst{Op: isa.Load, Dst: 5, Src1: 3, Imm: 8},
	)
	c.issue()
	checkSched(t, c)
	if c.rob[1].state != stDispatched || c.rob[2].state != stDispatched {
		t.Fatalf("store %d / load %d: both should wait for the mul", c.rob[1].state, c.rob[2].state)
	}
	for c.rob[2].state == stDispatched {
		c.now++
		c.completeExec()
		c.issue()
		checkSched(t, c)
	}
	if c.rob[1].state == stDispatched {
		t.Fatal("load issued before the older store's address was known")
	}
}

func TestNopCompletesWithoutTakingASlot(t *testing.T) {
	add := isa.Inst{Op: isa.Add, Dst: 5, Src1: 3, Src2: 4}
	nop := isa.Inst{Op: isa.Nop}
	c := stageCore(t, nop, add, nop, add, nop, add, nop, add, add, nop)
	c.issue()
	checkSched(t, c)
	want := []entryState{stDone, stIssued, stDone, stIssued, stDone, stIssued, stDone, stIssued,
		stDispatched, // no slot left
		stDispatched, // the pass ended when the slots ran out
	}
	for i, e := range c.robs() {
		if e.state != want[i] {
			t.Errorf("entry %d (%v): state %d, want %d", i, e.inst.Op, e.state, want[i])
		}
	}
}

func TestSquashThenSeqReuseLeavesNoStaleBit(t *testing.T) {
	c := stageCore(t,
		isa.Inst{Op: isa.Beq, Imm: 0}, // taken, predicted not taken
		isa.Inst{Op: isa.Mul, Dst: 6, Src1: 3, Src2: 3},
		isa.Inst{Op: isa.Store, Src1: 6, Src2: 4},       // address unknown: in pst and wait
		isa.Inst{Op: isa.Add, Dst: 7, Src1: 6, Src2: 6}, // waiting on the mul
	)
	c.issue()
	checkSched(t, c)
	c.now++
	c.completeExec() // the branch resolves taken and squashes the rest
	if c.robLen() != 1 || c.nextSeq != 1 {
		t.Fatalf("after the mispredict: %d entries, nextSeq %d", c.robLen(), c.nextSeq)
	}
	checkSched(t, c)
	for _, in := range []isa.Inst{
		{Op: isa.Nop},                           // reuses the mul's seq
		{Op: isa.Load, Dst: 5, Src1: 3, Imm: 8}, // reuses the store's seq
		{Op: isa.Add, Dst: 8, Src1: 3, Src2: 3}, // reuses the waiting add's seq
	} {
		c.fetchBuf = append(c.fetchBuf, fetched{inst: in})
	}
	c.dispatch()
	checkSched(t, c)
	c.issue()
	checkSched(t, c)
	for _, e := range c.robs()[1:] {
		if e.state == stDispatched {
			t.Errorf("reused seq %d (%v) did not issue: a squashed entry's bit survived", e.seq, e.inst.Op)
		}
	}
}
