package serve

import (
	"fmt"
	"slices"
	"testing"

	"shmd/internal/trace"
)

// oracleStream is the straightforward sliding-window stream that
// windowStream.slide must match: append each window to the buffer,
// re-slice it to the trailing period, and copy a fresh span with a
// formatted label for every re-scoring due.
type oracleStream struct {
	label      string
	stride     int
	period     int
	buf        []trace.WindowCounts
	total      int
	sinceScore int
}

func (st *oracleStream) slide(windows []trace.WindowCounts) []DecodedProgram {
	var programs []DecodedProgram
	for _, w := range windows {
		st.buf = append(st.buf, w)
		if len(st.buf) > st.period {
			st.buf = st.buf[len(st.buf)-st.period:]
		}
		st.total++
		st.sinceScore++
		if len(st.buf) == st.period && st.sinceScore >= st.stride {
			span := make([]trace.WindowCounts, st.period)
			copy(span, st.buf)
			programs = append(programs, DecodedProgram{
				ID:      fmt.Sprintf("%s#%d", st.label, st.total),
				Windows: span,
			})
			st.sinceScore = 0
		}
	}
	return programs
}

// numberedWindow is a window whose every field identifies its index in
// the stream, so a span holding the wrong window cannot compare equal.
func numberedWindow(i int) trace.WindowCounts {
	var w trace.WindowCounts
	w.Taken = i + 1
	for k := range w.Opcode {
		w.Opcode[k] = i*len(w.Opcode) + k
	}
	for k := range w.Stride {
		w.Stride[k] = -i - k
	}
	return w
}

// checkSlideOracle drives windowStream and the oracle with the same
// appends and requires equal spans, labels, counters and buffered
// tails after every append. Every span must be capacity-capped, and no
// later append may change a span already handed out.
func checkSlideOracle(t *testing.T, label string, period, stride int, appends []int) {
	t.Helper()
	got := newWindowStream(label, period, stride)
	want := &oracleStream{label: label, period: period, stride: stride}
	type handed struct {
		span, copy []trace.WindowCounts
	}
	var out []handed
	next := 0
	for a, n := range appends {
		windows := make([]trace.WindowCounts, n)
		for i := range windows {
			windows[i] = numberedWindow(next)
			next++
		}
		gp, wp := got.slide(windows), want.slide(windows)
		if len(gp) != len(wp) {
			t.Fatalf("append %d: %d re-scorings, oracle %d", a, len(gp), len(wp))
		}
		for i := range gp {
			if gp[i].ID != wp[i].ID {
				t.Fatalf("append %d re-scoring %d: label %q, oracle %q", a, i, gp[i].ID, wp[i].ID)
			}
			if !slices.Equal(gp[i].Windows, wp[i].Windows) {
				t.Fatalf("append %d re-scoring %d (%s): span differs from oracle", a, i, gp[i].ID)
			}
			if cap(gp[i].Windows) != len(gp[i].Windows) {
				t.Fatalf("append %d re-scoring %d: span cap %d, len %d", a, i, cap(gp[i].Windows), len(gp[i].Windows))
			}
			out = append(out, handed{gp[i].Windows, wp[i].Windows})
		}
		if got.total != want.total || got.sinceScore != want.sinceScore {
			t.Fatalf("append %d: total %d since %d, oracle %d %d", a, got.total, got.sinceScore, want.total, want.sinceScore)
		}
		if !slices.Equal(got.buf, want.buf) {
			t.Fatalf("append %d: buffered tail of %d windows differs from the oracle's %d", a, len(got.buf), len(want.buf))
		}
		if cap(got.buf) != period {
			t.Fatalf("append %d: tail capacity %d, want %d", a, cap(got.buf), period)
		}
	}
	for i, h := range out {
		if !slices.Equal(h.span, h.copy) {
			t.Fatalf("span %d changed after it was handed out", i)
		}
	}
}

// streamSlideCase maps fuzz input onto a stream: period 1–8, stride 0
// through period+2, and one append of 0–20 windows per remaining byte.
func streamSlideCase(periodSel, strideSel uint8, sizes []byte) (period, stride int, appends []int) {
	period = 1 + int(periodSel)%8
	stride = int(strideSel) % (period + 3)
	for _, b := range sizes {
		appends = append(appends, int(b)%21)
	}
	return period, stride, appends
}

func FuzzStreamSlideOracle(f *testing.F) {
	f.Add("cam", uint8(0), uint8(1), []byte{16, 16, 16})
	f.Add("cam", uint8(0), uint8(2), []byte{3, 1, 1})
	f.Add("s", uint8(3), uint8(0), []byte{1, 2, 3, 4, 5, 6})
	f.Add("s", uint8(3), uint8(6), []byte{0, 20, 0, 7, 3})
	f.Add("", uint8(7), uint8(10), []byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Add("long-label", uint8(7), uint8(1), []byte{7, 1, 20, 9})
	f.Add("x", uint8(1), uint8(3), []byte{1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, label string, periodSel, strideSel uint8, sizes []byte) {
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		period, stride, appends := streamSlideCase(periodSel, strideSel, sizes)
		checkSlideOracle(t, label, period, stride, appends)
	})
}

// TestStreamSlideOracleSweep runs every period and stride the fuzz
// target covers over a fixed append schedule.
func TestStreamSlideOracleSweep(t *testing.T) {
	appends := []int{0, 1, 3, 20, 2, 0, 8, 1, 1, 16, 5}
	for period := 1; period <= 8; period++ {
		for stride := 0; stride <= period+2; stride++ {
			t.Run(fmt.Sprintf("period=%d/stride=%d", period, stride), func(t *testing.T) {
				checkSlideOracle(t, "cam", period, stride, appends)
			})
		}
	}
}

// TestStreamSlideAllocs pins the warm stride-1 slide of a 16-window
// append: the slab, the program slice and the labels' one string.
func TestStreamSlideAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	windows := make([]trace.WindowCounts, 16)
	for i := range windows {
		windows[i] = numberedWindow(i)
	}
	for _, period := range []int{1, 4} {
		st := newWindowStream("cam", period, 1)
		st.slide(windows)
		allocs := testing.AllocsPerRun(50, func() {
			if got := st.slide(windows); len(got) != len(windows) {
				t.Fatalf("%d re-scorings, want %d", len(got), len(windows))
			}
		})
		t.Logf("period %d: %.1f allocs per 16-window slide", period, allocs)
		if allocs > 3 {
			t.Errorf("period %d: warm 16-window stride-1 slide made %.1f allocs, want <= 3", period, allocs)
		}
	}
}
