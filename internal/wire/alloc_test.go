package wire

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"shmd/internal/trace"
)

// allocSample builds a DETECT request of progs programs of windows
// windows each, a STREAM append of 16 windows and a VERDICT of 16
// results, all tenant-tagged.
func allocSample(progs, windows int) (DetectRequest, StreamRequest, Verdict) {
	req := DetectRequest{DeadlineMs: 250, Tenant: "acme"}
	for p := 0; p < progs; p++ {
		prog := DetectProgram{ID: fmt.Sprintf("prog-%d", p)}
		for w := 0; w < windows; w++ {
			prog.Windows = append(prog.Windows, goldenWindow(p+w))
		}
		req.Programs = append(req.Programs, prog)
	}
	st := StreamRequest{StreamID: 3, Stride: 1, ID: "cam", Tenant: "acme"}
	v := Verdict{Session: 1, Tenant: "acme"}
	for i := 0; i < 16; i++ {
		st.Windows = append(st.Windows, goldenWindow(i))
		v.Results = append(v.Results, VerdictResult{ID: fmt.Sprintf("cam#%d", i+1), Score: 0.5, Confidence: 0.25, Attempts: 1, Windows: 1})
	}
	return req, st, v
}

// TestEncodersAllocOnce pins the exact-size encoders: each sizes its
// payload up front, exactly, and appends into nil with one allocation,
// and appending after existing bytes keeps them.
func TestEncodersAllocOnce(t *testing.T) {
	req, st, v := allocSample(4, 16)
	encoders := map[string]struct {
		enc  func([]byte) ([]byte, error)
		size int
	}{
		"detect":  {func(dst []byte) ([]byte, error) { return AppendDetectRequest(dst, req) }, detectRequestLen(req)},
		"stream":  {func(dst []byte) ([]byte, error) { return AppendStreamRequest(dst, st) }, streamRequestLen(st)},
		"verdict": {func(dst []byte) ([]byte, error) { return AppendVerdict(dst, v) }, verdictLen(v)},
	}
	for name, e := range encoders {
		t.Run(name, func(t *testing.T) {
			want, err := e.enc(nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != e.size {
				t.Fatalf("encoded %d bytes, pre-sized %d", len(want), e.size)
			}
			prefix := []byte("prefix")
			got, err := e.enc(slices.Clip(prefix))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, append(prefix, want...)) {
				t.Fatal("encoding after a prefix differs from the prefix plus the bare encoding")
			}
			if raceEnabled {
				t.Skip("allocation counts are not pinned under the race detector")
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := e.enc(nil); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 1 {
				t.Errorf("encoding into nil made %.1f allocs, want exactly 1", allocs)
			}
		})
	}
}

// TestDecodeVerdictAllocs pins a 16-result decode: the result slice
// and the one string all result ids share.
func TestDecodeVerdictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	_, _, v := allocSample(0, 0)
	v.Tenant = ""
	payload, err := AppendVerdict(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DecodeVerdict(payload); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocs per 16-result decode", allocs)
	if allocs > 3 {
		t.Errorf("16-result verdict decode made %.1f allocs, want <= 3", allocs)
	}
}

// TestDecodeDetectRequestAllocsFlat pins the DETECT slab: a frame's
// allocations do not grow with its program count.
func TestDecodeDetectRequestAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	var counts []float64
	for _, progs := range []int{1, 16, 64} {
		req, _, _ := allocSample(progs, 1)
		payload, err := AppendDetectRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := DecodeDetectRequest(payload); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d programs: %.1f allocs per decode", progs, allocs)
		counts = append(counts, allocs)
	}
	if counts[2] > counts[0] || counts[2] > 4 {
		t.Errorf("decode allocs by program count 1/16/64 = %v, want flat and <= 4", counts)
	}
}

// TestDecodeDetectRequestSlab checks the slab layout: every program's
// windows and id are its own, each Windows is capacity-capped, and an
// append to one program's windows leaves its neighbour untouched.
func TestDecodeDetectRequestSlab(t *testing.T) {
	req, _, _ := allocSample(5, 3)
	req.Programs[2].Windows = nil
	req.Programs[3].ID = ""
	payload, err := AppendDetectRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDetectRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Programs) != len(req.Programs) || got.Tenant != req.Tenant || got.DeadlineMs != req.DeadlineMs {
		t.Fatalf("decoded %d programs tenant %q deadline %d", len(got.Programs), got.Tenant, got.DeadlineMs)
	}
	for i, p := range got.Programs {
		want := req.Programs[i]
		if p.ID != want.ID || !slices.Equal(p.Windows, want.Windows) {
			t.Fatalf("program %d: id %q, %d windows; want %q, %d", i, p.ID, len(p.Windows), want.ID, len(want.Windows))
		}
		if cap(p.Windows) != len(p.Windows) {
			t.Fatalf("program %d: windows cap %d, len %d", i, cap(p.Windows), len(p.Windows))
		}
	}
	next := slices.Clone(got.Programs[1].Windows)
	_ = append(got.Programs[0].Windows, trace.WindowCounts{Taken: -1})
	if !slices.Equal(got.Programs[1].Windows, next) {
		t.Fatal("appending to program 0's windows overwrote program 1's")
	}
}
