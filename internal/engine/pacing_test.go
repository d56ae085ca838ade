package engine

import (
	"math/rand"
	"testing"
)

// refSource counts the draws rand.Rand makes from a rand.NewSource
// stream. It implements rand.Source only, so rand.Rand draws through
// Int63 for everything.
type refSource struct {
	rand.Source
	n uint64
}

func (s *refSource) Int63() int64 {
	s.n++
	return s.Source.Int63()
}

// TestCountingSourceMatchesMathRand checks that countingSource's intn
// and int63n return, over many seeds, the same values after the same
// number of draws as rand.Rand's Intn and Int63n on the same seed:
// powers of two (the mask path), non-powers (the rejection loops, with
// bounds chosen so a quarter of the draws are rejected), 2^31-1, and
// bounds above 2^31 (Intn's 63-bit path).
func TestCountingSourceMatchesMathRand(t *testing.T) {
	intns := []int{1, 2, 3, 4, 7, 8, 15, 16, 64, 1000, 3 << 29, 1 << 30, 1<<31 - 1, 1 << 31, 1<<40 + 3, 3 << 61}
	int63ns := []int64{1, 2, 3, 7, 15, 16, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<40 + 3, 1 << 62, 3 << 61, 1<<63 - 1}
	var calls, draws uint64
	for seed := int64(-3); seed < 200; seed++ {
		ours := newCountingSource(seed)
		src := &refSource{Source: rand.NewSource(seed)}
		ref := rand.New(src)
		for i := 0; i < 400; i++ {
			if i%2 == 0 {
				n := intns[(i/2+int(seed&7))%len(intns)]
				if got, want := ours.intn(n), ref.Intn(n); got != want {
					t.Fatalf("seed %d call %d: intn(%d) = %d, rand.Intn = %d", seed, i, n, got, want)
				}
			} else {
				n := int63ns[(i/2+int(seed&7))%len(int63ns)]
				if got, want := ours.int63n(n), ref.Int63n(n); got != want {
					t.Fatalf("seed %d call %d: int63n(%d) = %d, rand.Int63n = %d", seed, i, n, got, want)
				}
			}
			if ours.n != src.n {
				t.Fatalf("seed %d call %d: %d draws, rand.Rand made %d", seed, i, ours.n, src.n)
			}
			calls++
		}
		draws += ours.n
	}
	// The rejection loops must actually have run.
	if draws <= calls {
		t.Fatalf("%d draws for %d calls: no rejection loop ran", draws, calls)
	}
}

// TestRunnableAtIsKthInIndexOrder checks the runnable-set pick against
// a naive index-ordered list over random masks of one to three words,
// and that leave keeps the population in step.
func TestRunnableAtIsKthInIndexOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		cores := 1 + rng.Intn(150)
		r := &detRun{runnable: make([]uint64, (cores+63)/64)}
		var list []int
		for i := 0; i < cores; i++ {
			if rng.Intn(3) > 0 {
				r.runnable[i>>6] |= 1 << uint(i&63)
				r.nRunnable++
				list = append(list, i)
			}
		}
		for len(list) > 0 {
			if r.nRunnable != len(list) {
				t.Fatalf("population %d, want %d", r.nRunnable, len(list))
			}
			for k, want := range list {
				if got := r.runnableAt(k); got != want {
					t.Fatalf("%d cores, mask %x: pick %d = core %d, want %d", cores, r.runnable, k, got, want)
				}
			}
			k := rng.Intn(len(list))
			r.leave(list[k])
			list = append(list[:k], list[k+1:]...)
		}
	}
}
