package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"shmd/internal/faults"
	"shmd/internal/replay"
	"shmd/internal/trace"
)

// FuzzDetectRequestDecode drives arbitrary request bodies through the
// decoder. Invariants: never panic; every rejection carries a 4xx
// status (malformed input must map to a client error, not a 5xx or a
// zero status); every accepted request survives an encode/decode
// round-trip unchanged.
func FuzzDetectRequestDecode(f *testing.F) {
	for _, seed := range detectDecodeSeeds(f) {
		f.Add(seed)
	}
	lim := Limits{MaxPrograms: 8, MaxWindows: 16, MinWindows: 1}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		programs, err := DecodeDetectRequest(bytes.NewReader(body), lim)
		if err != nil {
			// Rejections must map to client-error statuses.
			if code := StatusOf(err); code < 400 || code > 499 {
				t.Fatalf("decode error %q mapped to status %d", err, code)
			}
			return
		}
		// Accepted: the batch respects the limits...
		if len(programs) < 1 || len(programs) > lim.MaxPrograms {
			t.Fatalf("accepted batch of %d programs (limit %d)", len(programs), lim.MaxPrograms)
		}
		for _, p := range programs {
			if len(p.Windows) < lim.MinWindows || len(p.Windows) > lim.MaxWindows {
				t.Fatalf("accepted %d windows (limits %d..%d)", len(p.Windows), lim.MinWindows, lim.MaxWindows)
			}
			for _, wc := range p.Windows {
				if wc.Total() <= 0 {
					t.Fatalf("accepted empty window %+v", wc)
				}
				if wc.Taken < 0 || wc.Taken > wc.Branches() {
					t.Fatalf("accepted taken %d outside [0, %d]", wc.Taken, wc.Branches())
				}
			}
		}
		// ...and round-trips: re-encoding and re-decoding reproduces
		// the same window counts.
		req := DetectRequest{}
		for _, p := range programs {
			req.Programs = append(req.Programs, ProgramJSON{ID: p.ID, Windows: EncodeWindows(p.Windows)})
		}
		encoded, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := DecodeDetectRequest(bytes.NewReader(encoded), lim)
		if err != nil {
			t.Fatalf("accepted request failed round-trip: %v\nbody: %s", err, encoded)
		}
		if len(again) != len(programs) {
			t.Fatalf("round-trip program count %d != %d", len(again), len(programs))
		}
		for i := range programs {
			if again[i].ID != programs[i].ID {
				t.Fatalf("program %d id %q != %q", i, again[i].ID, programs[i].ID)
			}
			if len(again[i].Windows) != len(programs[i].Windows) {
				t.Fatalf("program %d window count changed", i)
			}
			for j := range programs[i].Windows {
				if again[i].Windows[j] != programs[i].Windows[j] {
					t.Fatalf("program %d window %d changed: %+v != %+v",
						i, j, again[i].Windows[j], programs[i].Windows[j])
				}
			}
		}
	})
}

// detectDecodeSeeds is the seed corpus of both decode fuzz targets.
func detectDecodeSeeds(f *testing.F) [][]byte {
	var seeds [][]byte
	// Seed with a fully valid request built from a real synthesized
	// trace, so the fuzzer starts inside the accepted grammar...
	prog, err := trace.NewProgram(trace.Trojan, 0, 1)
	if err != nil {
		f.Fatal(err)
	}
	windows, err := prog.Trace(4, 256)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(DetectRequest{Programs: []ProgramJSON{
		{ID: "seed", Windows: EncodeWindows(windows)},
	}})
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, valid)
	// ...and with representative rejections so each validation branch
	// is in the corpus.
	seeds = append(seeds,
		[]byte(`{`),
		[]byte(`null`),
		[]byte(`{"programs":[]}`),
		[]byte(`{"programs":[{"windows":[]}]}`),
		[]byte(`{"programs":[{"windows":[{"opcode":[1,2]}]}]}`),
		[]byte(`{"programs":[{"windows":[{"opcode":[-1],"taken":5}]}]}`),
		[]byte(`{"programs":[{"id":"x","windows":[{"stride":[1,2,3]}]}]}`),
		append(valid, []byte("{}")...),
	)
	// Journal-shaped bodies: a calibration journal POSTed at the detect
	// endpoint by a confused client must be a clean 4xx, and its binary
	// framing (magic, big-endian length, CRC trailer) gives the mutator
	// structured non-JSON material to splice.
	seeds = append(seeds,
		[]byte("SHMDJNL1\x00\x00\x00\x10{\"entries\":[]}\xde\xad\xbe\xef"),
		[]byte(`{"programs":[{"id":"SHMDJNL1","windows":[{"opcode":[1]}]}]}`),
	)
	// Deadline-header-shaped bodies: header text leaking into the body,
	// and header-like keys inside the JSON grammar.
	seeds = append(seeds,
		[]byte("X-Detect-Deadline-Ms: 250\r\n\r\n"+`{"programs":[]}`),
		[]byte(`{"X-Detect-Deadline-Ms":250,"programs":[{"windows":[{"opcode":[1]}]}]}`),
	)
	// Trace-framed bodies: a decision-trace file POSTed at the detect
	// endpoint (an auditor piping the wrong file) must also be a clean
	// 4xx, and a genuine framed record seeds the mutator with the trace
	// grammar (magic, length prefix, varints, CRC trailer).
	var framed bytes.Buffer
	tw, err := replay.NewWriter(&framed)
	if err != nil {
		f.Fatal(err)
	}
	if err := tw.WriteRecord(replay.Record{
		Seed: 7, Rate: 0.1, DepthMV: 150, Threshold: 0.5,
		Malware: true, Score: 0.75, Confidence: 0.5,
		Draws:   faults.DrawLog{InitialGap: -1},
		Windows: windows[:1],
	}); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds,
		framed.Bytes(),
		[]byte(replay.Magic),
		[]byte(`{"programs":[{"id":"SHMDTRC1","windows":[{"opcode":[1]}]}]}`),
	)
	return seeds
}

// TestStatusOf pins the error-to-status mapping the fuzz target relies
// on.
func TestStatusOf(t *testing.T) {
	if got := StatusOf(&RequestError{Status: 422, Msg: "x"}); got != 422 {
		t.Errorf("RequestError status = %d", got)
	}
	if got := StatusOf(&http.MaxBytesError{Limit: 1}); got != http.StatusRequestEntityTooLarge {
		t.Errorf("MaxBytesError status = %d", got)
	}
	if got := StatusOf(bytes.ErrTooLarge); got != http.StatusBadRequest {
		t.Errorf("generic error status = %d", got)
	}
}
