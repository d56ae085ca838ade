package engine

import "math/rand"

// countingSource is the deterministic host's random stream: a
// rand.NewSource stream whose draws are counted, so a run's RNG position
// can be exported and fast-forwarded on resume. intn and int63n
// reproduce rand.Rand's Intn and Int63n draw for draw (rejection loops
// included), so the stream of picks is exactly the one
// rand.New(rand.NewSource(seed)) yields, without the rand.Rand layer's
// extra indirections on every pacing step.
type countingSource struct {
	src rand.Source
	n   uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed)}
}

// int63 draws one value.
//
//slacksim:hotpath
func (s *countingSource) int63() int64 {
	s.n++
	return s.src.Int63()
}

// int63n is rand.Rand.Int63n: a value in [0, n), n > 0.
//
//slacksim:hotpath
func (s *countingSource) int63n(n int64) int64 {
	if n <= 0 {
		panic("engine: invalid argument to int63n")
	}
	if n&(n-1) == 0 {
		return s.int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.int63()
	for v > max {
		v = s.int63()
	}
	return v % n
}

// intn is rand.Rand.Intn: a value in [0, n), n > 0, drawn through
// Int31n's 31-bit path whenever n fits it.
//
//slacksim:hotpath
func (s *countingSource) intn(n int) int {
	if n <= 0 {
		panic("engine: invalid argument to intn")
	}
	if n > 1<<31-1 {
		return int(s.int63n(int64(n)))
	}
	m := int32(n)
	if m&(m-1) == 0 {
		return int(int32(s.int63()>>32) & (m - 1))
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(m))
	v := int32(s.int63() >> 32)
	for v > max {
		v = int32(s.int63() >> 32)
	}
	return int(v % m)
}
