package rng

import "math/rand"

// Source is an exact clone of the generator behind math/rand.NewSource:
// the additive lagged Fibonacci generator x[n] = x[n-607] + x[n-273]
// (mod 2^64) over a 607-word register. For every seed it produces the
// same Int63 and Uint64 values, draw for draw, as rand.NewSource(seed)
// — every seeded stream in the repository (fault lanes, dataset
// generation, figure campaigns) is pinned to that output — but it
// seeds about five times faster, with no allocation when reseeded in
// place.
//
// The speed comes from the seeding schedule. math/rand fills the
// register from 1,841 consecutive steps of the Park–Miller generator
// x[n+1] = 48271·x[n] mod (2^31−1), one serial chain of divisions.
// Step n is x[0]·48271^n mod (2^31−1), so Seed instead multiplies the
// seed by a precomputed power table: 1,821 independent multiply-reduce
// operations the CPU overlaps freely.
//
// The zero value is not seeded; call Seed before drawing. A Source is
// not safe for concurrent use.
type Source struct {
	tap  int
	feed int
	vec  [srcLen]int64
}

const (
	srcLen = 607 // register length (the long lag)
	srcTap = 273 // the short lag

	// Park–Miller seeding generator: multiplier and modulus 2^31−1.
	pmA = 48271
	pmM = 1<<31 - 1

	// pmWarmup is the number of seeding steps math/rand discards before
	// the first register word; each word then consumes three steps.
	pmWarmup = 20
)

// seedTables holds what Seed needs beyond the seed itself.
var seedTables = buildSeedTables()

type srcSeedTables struct {
	// pow[3i+k] is pmA^(pmWarmup+1+3i+k) mod pmM: the multiplier that
	// takes the seed to the k-th Park–Miller step of register word i.
	pow [3 * srcLen]uint64
	// cooked is the whitening mask math/rand XORs into the register
	// (its rngCooked table, the generator state after 7.8e12 steps).
	cooked [srcLen]int64
}

// buildSeedTables derives the power table directly and recovers the
// whitening mask from math/rand's public output. The first 607 draws
// of rand.NewSource(1) determine its seeded register exactly: a draw
// adds two register words and stores the sum, so walking the draws in
// order solves for every word (draws 273..606 subtract an earlier
// draw, which resolves the short-lag operand they overwrote; draws
// 0..272 then subtract a word already solved). Seed(1)'s register is
// the mask XOR seed 1's Park–Miller words, which pow gives directly.
// The package tests hold the result to math/rand for thousands of
// seeds, so the mask cannot silently drift from the standard library's.
func buildSeedTables() *srcSeedTables {
	t := &srcSeedTables{}
	p := uint64(1)
	for n := 1; n <= pmWarmup+3*srcLen; n++ {
		p = mulModPM(p, pmA)
		if n > pmWarmup {
			t.pow[n-pmWarmup-1] = p
		}
	}

	ref, ok := rand.NewSource(1).(rand.Source64)
	if !ok {
		panic("rng: math/rand source does not implement Source64")
	}
	var out [srcLen]int64
	for k := range out {
		out[k] = int64(ref.Uint64())
	}
	var reg [srcLen]int64
	for k := srcTap; k < srcLen; k++ {
		reg[(srcLen-srcTap-1-k+srcLen)%srcLen] = out[k] - out[k-srcTap]
	}
	for k := 0; k < srcTap; k++ {
		reg[srcLen-srcTap-1-k] = out[k] - reg[srcLen-1-k]
	}
	for i := range t.cooked {
		t.cooked[i] = reg[i] ^ registerWord(1, i, &t.pow)
	}
	return t
}

// registerWord is the unwhitened register word i for a normalized seed
// x0 in [1, 2^31−2]: its three Park–Miller steps packed the way
// math/rand packs them (x<<40 ^ x<<20 ^ x, wrapping at 64 bits).
func registerWord(x0 uint64, i int, pow *[3 * srcLen]uint64) int64 {
	a := mulModPM(x0, pow[3*i])
	b := mulModPM(x0, pow[3*i+1])
	c := mulModPM(x0, pow[3*i+2])
	return int64(a<<40 ^ b<<20 ^ c)
}

// mulModPM returns x·p mod 2^31−1 for x, p in [1, 2^31−2], folding
// the 62-bit product twice with the Mersenne identity 2^31 ≡ 1. The
// first fold leaves a value below 2^32, the second one at most 2^31−1;
// that bound itself (≡ 0) cannot occur for a product of two nonzero
// residues mod a prime, so no final compare-and-subtract is needed —
// a branch that would mispredict about half the time.
func mulModPM(x, p uint64) uint64 {
	v := x * p
	v = v&pmM + v>>31
	return v&pmM + v>>31
}

// Seed initializes the source to the state rand.NewSource(seed) starts
// in. Reseeding in place is how hot paths draw a fresh stream without
// allocating.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = srcLen - srcTap
	seed %= pmM
	if seed < 0 {
		seed += pmM
	}
	if seed == 0 {
		seed = 89482311 // math/rand's replacement for the fixed point
	}
	x0 := uint64(seed)
	t := seedTables
	for i := range s.vec {
		s.vec[i] = registerWord(x0, i, &t.pow) ^ t.cooked[i]
	}
}

// Uint64 returns the next 64-bit output.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next output with its top bit cleared.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

var _ rand.Source64 = (*Source)(nil)
