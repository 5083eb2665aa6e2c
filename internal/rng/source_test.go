package rng

import (
	"math"
	"math/rand"
	"testing"
)

// sourceDraws is the number of outputs compared per seed: far past one
// full turn of the 607-word register, so every lag and wraparound of
// the feed and tap indices is exercised many times.
const sourceDraws = 10_000

// assertMatchesMathRand compares n draws of src against
// rand.NewSource(seed), alternating Uint64 and Int63 so both views are
// held to the standard library's.
func assertMatchesMathRand(t *testing.T, seed int64, src *Source, n int) {
	t.Helper()
	ref := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand %#x", seed, i, got, want)
			}
		} else if got, want := src.Int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d: Int63 draw %d = %#x, math/rand %#x", seed, i, got, want)
		}
	}
}

func freshSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

func TestSourceMatchesMathRandEdgeSeeds(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, 89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for k := int64(-3); k <= 3; k++ {
		// Multiples of 2^31−1 reduce to 0, which math/rand remaps.
		seeds = append(seeds, k*pmM, k*pmM+1, k*pmM-1)
	}
	for _, seed := range seeds {
		assertMatchesMathRand(t, seed, freshSource(seed), sourceDraws)
	}
}

func TestSourceMatchesMathRandDerivedSeeds(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 200
	}
	for i := 0; i < n; i++ {
		seed := int64(DeriveSeed(0x5BA7, uint64(i)))
		assertMatchesMathRand(t, seed, freshSource(seed), sourceDraws)
	}
}

func TestSourceReseedInPlace(t *testing.T) {
	s := freshSource(7)
	for i := 0; i < 1234; i++ { // leave feed/tap mid-register
		s.Uint64()
	}
	for _, seed := range []int64{7, 8, 0, -42} {
		s.Seed(seed)
		fresh := freshSource(seed)
		for i := 0; i < sourceDraws; i++ {
			if a, b := s.Uint64(), fresh.Uint64(); a != b {
				t.Fatalf("reseed %d: draw %d = %#x, fresh source %#x", seed, i, a, b)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Seed(99) }); allocs != 0 {
		t.Errorf("Seed in place allocates %.0f times, want 0", allocs)
	}
}

// TestNewRandMatchesMathRand pins the derived-stream constructors to
// the streams they drew when they were built on rand.NewSource.
func TestNewRandMatchesMathRand(t *testing.T) {
	for label := uint64(0); label < 16; label++ {
		seed := int64(DeriveSeed(3, label))
		got := NewRand(3, label)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			if a, b := got.Float64(), want.Float64(); a != b {
				t.Fatalf("label %d: Float64 draw %d = %v, math/rand %v", label, i, a, b)
			}
			if a, b := got.Intn(1000), want.Intn(1000); a != b {
				t.Fatalf("label %d: Intn draw %d = %d, math/rand %d", label, i, a, b)
			}
		}
		assertMatchesMathRand(t, seed, NewSource64(3, label), sourceDraws)
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, pmM, math.MinInt64, math.MaxInt64} {
		f.Add(seed, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		assertMatchesMathRand(t, seed, freshSource(seed), int(n))
	})
}

func BenchmarkSourceSeed(b *testing.B) {
	b.ReportAllocs()
	var s Source
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}

func BenchmarkMathRandNewSource(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rand.NewSource(int64(i))
	}
}
