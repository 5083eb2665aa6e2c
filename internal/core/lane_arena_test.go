package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"shmd/internal/faults"
	"shmd/internal/hmd"
	"shmd/internal/rng"
	"shmd/internal/trace"
)

// freshBatchPass is the reference a reused lane arena must reproduce:
// pass number pass of DetectTracesBatch built from nothing — math/rand
// sources on the derived lane seeds, a new batch injector, a
// buffer-fresh HMD — with every lane recorded.
func freshBatchPass(t *testing.T, base *hmd.HMD, seed uint64, dist *faults.Distribution, pass uint64, rate float64, traces [][]trace.WindowCounts) ([]hmd.Decision, []faults.DrawLog) {
	t.Helper()
	srcs := make([]rand.Source64, len(traces))
	for j := range srcs {
		lane := rng.DeriveSeed(seed, batchPassLabel, pass, math.Float64bits(rate), uint64(j))
		srcs[j] = rand.NewSource(int64(lane)).(rand.Source64)
	}
	binj, err := faults.NewBatchInjector(rate, dist, srcs)
	if err != nil {
		t.Fatal(err)
	}
	logs := make([]faults.DrawLog, len(traces))
	for j := range logs {
		binj.Lane(j).StartRecord(&logs[j])
	}
	return base.WithFreshBuffers().DetectTracesUnit(binj, traces), logs
}

func sameDrawLogs(t *testing.T, phase string, got, want []faults.DrawLog) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d logs, want %d", phase, len(got), len(want))
	}
	for j := range got {
		if got[j].InitialGap != want[j].InitialGap ||
			!slices.Equal(got[j].Gaps, want[j].Gaps) || !slices.Equal(got[j].Bits, want[j].Bits) {
			t.Fatalf("%s: lane %d draw log differs from a freshly built pass (%d/%d gaps, %d/%d bits)",
				phase, j, len(got[j].Gaps), len(want[j].Gaps), len(got[j].Bits), len(want[j].Bits))
		}
	}
}

// TestLaneArenaReuseMatchesFreshPass drives one detector's lane arena
// through everything that reshapes it between passes — the lane count
// shrinking and regrowing, the error rate moving (across the
// tabulated/log-inversion regime boundary too), recording toggling,
// and EnableBatchStreams swapping seed and fault distribution — and
// requires every pass to be bit-identical, decisions and draw logs, to
// the same pass built from scratch.
func TestLaneArenaReuseMatchesFreshPass(t *testing.T) {
	_, base := fixtures(t)
	wide := batchTraces(t, 19)
	narrow := wide[16:]
	wide = wide[:16]
	s, err := New(base, Options{ErrorRate: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	seed, dist := uint64(5), faults.Fig1Distribution()
	steps := []struct {
		traces [][]trace.WindowCounts
		record bool
		before func()
	}{
		{wide, true, nil},
		{narrow, false, nil},
		{wide, true, nil},
		{wide, false, func() {
			if err := s.SetErrorRate(0.3); err != nil {
				t.Fatal(err)
			}
		}},
		{narrow, true, nil},
		{wide, true, func() {
			seed, dist = 999, faults.UniformDistribution()
			s.EnableBatchStreams(seed, dist)
		}},
		{narrow, true, func() {
			if err := s.SetErrorRate(0.005); err != nil {
				t.Fatal(err)
			}
		}},
		{wide, false, nil},
		{wide, true, nil},
	}
	for pass, st := range steps {
		if st.before != nil {
			st.before()
		}
		decs, logs, ok := s.DetectTracesBatch(st.traces, st.record)
		if !ok {
			t.Fatalf("pass %d declined", pass)
		}
		wantDecs, wantLogs := freshBatchPass(t, base, seed, dist, uint64(pass), s.ErrorRate(), st.traces)
		phase := fmt.Sprintf("pass %d", pass)
		sameDecisions(t, phase, decs, wantDecs)
		if st.record {
			sameDrawLogs(t, phase, logs, wantLogs)
		} else if logs != nil {
			t.Fatalf("%s: unrecorded pass returned logs", phase)
		}
	}
}

// TestSessionDetectBatchSteadyStateAllocs pins the allocation-free
// batch pass: once a slot's arenas have grown, a whole Session cycle —
// enter, per-pass lane reseeding, feature extraction, the faulty
// forward passes, exit — allocates only the returned decision slice.
func TestSessionDetectBatchSteadyStateAllocs(t *testing.T) {
	_, base := fixtures(t)
	s, err := New(base, Options{ErrorRate: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(s)
	if err != nil {
		t.Fatal(err)
	}
	traces := batchTraces(t, 16)
	for _, lanes := range []int{16, 1} {
		batch := traces[:lanes]
		for i := 0; i < 3; i++ {
			if _, _, err := sess.DetectBatch(batch, false); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := sess.DetectBatch(batch, false); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d lanes: %.1f allocs per pass", lanes, allocs)
		if allocs > 2 {
			t.Errorf("%d-lane Session.DetectBatch: %.1f allocs per pass, want <= 2", lanes, allocs)
		}
	}
}
