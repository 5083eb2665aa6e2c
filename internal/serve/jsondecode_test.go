package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"shmd/internal/isa"
	"shmd/internal/trace"
)

// oracleDecodeDetectRequest is the reflection-based decoder the
// single-pass scanner replaced, kept as its differential oracle:
// encoding/json into DetectRequest, then the same checks in the same
// order.
func oracleDecodeDetectRequest(r io.Reader, lim Limits) ([]DecodedProgram, error) {
	lim = lim.withDefaults()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req DetectRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, badRequest("request body holds more than one JSON value")
	}
	if len(req.Programs) == 0 {
		return nil, badRequest("empty batch: need at least one program")
	}
	if len(req.Programs) > lim.MaxPrograms {
		return nil, badRequest("batch of %d programs exceeds limit %d", len(req.Programs), lim.MaxPrograms)
	}
	out := make([]DecodedProgram, len(req.Programs))
	for i, p := range req.Programs {
		windows, err := decodeProgram(p, i, lim)
		if err != nil {
			return nil, err
		}
		out[i] = DecodedProgram{ID: p.ID, Windows: windows}
	}
	return out, nil
}

// decodeProgram validates one oracle-decoded program's windows.
func decodeProgram(p ProgramJSON, idx int, lim Limits) ([]trace.WindowCounts, error) {
	if len(p.Windows) < lim.MinWindows {
		return nil, badRequest("program %d: %d windows, need at least %d for one detection period",
			idx, len(p.Windows), lim.MinWindows)
	}
	if len(p.Windows) > lim.MaxWindows {
		return nil, badRequest("program %d: %d windows exceeds limit %d", idx, len(p.Windows), lim.MaxWindows)
	}
	out := make([]trace.WindowCounts, len(p.Windows))
	for w, win := range p.Windows {
		wc, err := decodeWindow(win, idx, w)
		if err != nil {
			return nil, err
		}
		out[w] = wc
	}
	return out, nil
}

// decodeWindow checks one oracle-decoded window's shape and converts
// it to the internal measurement type.
func decodeWindow(win WindowJSON, prog, idx int) (trace.WindowCounts, error) {
	var wc trace.WindowCounts
	if len(win.Opcode) != isa.NumOpcodes {
		return wc, badRequest("program %d window %d: %d opcode counts, want %d",
			prog, idx, len(win.Opcode), isa.NumOpcodes)
	}
	copy(wc.Opcode[:], win.Opcode)
	wc.Taken = win.Taken
	if len(win.Stride) != 0 && len(win.Stride) != trace.StrideBuckets {
		return wc, badRequest("program %d window %d: %d stride buckets, want 0 or %d",
			prog, idx, len(win.Stride), trace.StrideBuckets)
	}
	copy(wc.Stride[:], win.Stride)
	if err := validateWindowCounts(wc, prog, idx); err != nil {
		return trace.WindowCounts{}, err
	}
	return wc, nil
}

// repeatsKey reports whether any object in body names a member twice,
// comparing names as encoding/json matches them to struct fields
// (bytes.EqualFold). It walks tokens until the first syntax error.
func repeatsKey(body []byte) bool {
	type frame struct {
		object, wantKey bool
		keys            []string
	}
	var stack []frame
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if n := len(stack); n > 0 && stack[n-1].wantKey {
			if k, ok := tok.(string); ok {
				for _, prev := range stack[n-1].keys {
					if bytes.EqualFold([]byte(prev), []byte(k)) {
						return true
					}
				}
				stack[n-1].keys = append(stack[n-1].keys, k)
				stack[n-1].wantKey = false
				continue
			}
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, frame{object: true, wantKey: true})
			continue
		case json.Delim('['):
			stack = append(stack, frame{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
		// A value just ended: an enclosing object wants its next key.
		if n := len(stack); n > 0 && stack[n-1].object {
			stack[n-1].wantKey = true
		}
	}
}

// checkAgainstOracle decodes body with both decoders. Without a
// repeated key they must agree on acceptance, the decoded programs, the
// status, and the message of every *RequestError the oracle returns;
// with one the scanner must answer 400.
func checkAgainstOracle(t *testing.T, body []byte, lim Limits) ([]DecodedProgram, error) {
	t.Helper()
	got, err := DecodeDetectRequest(bytes.NewReader(body), lim)
	if repeatsKey(body) {
		if err == nil || StatusOf(err) != http.StatusBadRequest {
			t.Fatalf("repeated key: err %v, want a 400\nbody: %q", err, body)
		}
		return got, err
	}
	want, wantErr := oracleDecodeDetectRequest(bytes.NewReader(body), lim)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("err %v, oracle %v\nbody: %q", err, wantErr, body)
	}
	if err != nil {
		if StatusOf(err) != StatusOf(wantErr) {
			t.Fatalf("status %d (%v), oracle %d (%v)\nbody: %q", StatusOf(err), err, StatusOf(wantErr), wantErr, body)
		}
		var reqErr *RequestError
		if errors.As(wantErr, &reqErr) && err.Error() != wantErr.Error() {
			t.Fatalf("message %q, oracle %q\nbody: %q", err, wantErr, body)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("programs %+v, oracle %+v\nbody: %q", got, want, body)
	}
	return got, err
}

// FuzzDetectRequestDecodeOracle checks the single-pass decoder against
// the encoding/json oracle on arbitrary bodies.
func FuzzDetectRequestDecodeOracle(f *testing.F) {
	for _, seed := range detectDecodeSeeds(f) {
		f.Add(seed)
	}
	for _, tc := range decodeEdgeCases() {
		f.Add([]byte(tc.body))
	}
	lim := Limits{MaxPrograms: 8, MaxWindows: 16, MinWindows: 1}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstOracle(t, body, lim)
	})
}

type decodeEdgeCase struct {
	name, body string
	// status is 0 for an accepted body.
	status int
	// msg, when set, is the exact rejection message.
	msg string
	// check, when set, inspects the accepted programs.
	check func(t *testing.T, programs []DecodedProgram)
}

// decodeEdgeCases are grammar edges of the request schema.
func decodeEdgeCases() []decodeEdgeCase {
	opcode := "[3" + strings.Repeat(",1", isa.NumOpcodes-1) + "]"
	stride := "[7" + strings.Repeat(",0", trace.StrideBuckets-1) + "]"
	window := `{"opcode":` + opcode + `}`
	body := func(windowJSON string) string { return `{"programs":[{"id":"p","windows":[` + windowJSON + `]}]}` }
	withOpcodes := func(first string) string {
		return body(`{"opcode":[` + first + strings.Repeat(",1", isa.NumOpcodes-1) + `]}`)
	}
	withTaken := func(taken string) string { return body(`{"opcode":` + opcode + `,"taken":` + taken + `}`) }
	withID := func(id string) string { return `{"programs":[{"id":` + id + `,"windows":[` + window + `]}]}` }
	valid := body(window)
	const noWindows = "program 0: 0 windows, need at least 1 for one detection period"
	const noOpcodes = "program 0 window 0: 0 opcode counts, want 64"
	const emptyBatch = "empty batch: need at least one program"
	firstOpcode := func(want int) func(*testing.T, []DecodedProgram) {
		return func(t *testing.T, p []DecodedProgram) {
			if got := p[0].Windows[0].Opcode[0]; got != want {
				t.Errorf("opcode[0] = %d, want %d", got, want)
			}
		}
	}
	id := func(want string) func(*testing.T, []DecodedProgram) {
		return func(t *testing.T, p []DecodedProgram) {
			if p[0].ID != want {
				t.Errorf("id = %q, want %q", p[0].ID, want)
			}
		}
	}
	return []decodeEdgeCase{
		// Member names: exact, case-folded, Unicode-folded, escaped.
		{name: "Programs key", body: `{"Programs":[{"windows":[` + window + `]}]}`},
		{name: "OPCODE key", body: body(`{"OPCODE":` + opcode + `}`), check: firstOpcode(3)},
		{name: "long-s stride key", body: body(`{"opcode":` + opcode + `,"ſtride":` + stride + `}`),
			check: func(t *testing.T, p []DecodedProgram) {
				if got := p[0].Windows[0].Stride[0]; got != 7 {
					t.Errorf("stride[0] = %d, want 7", got)
				}
			}},
		{name: "opcode key", body: valid, check: firstOpcode(3)},
		{name: "escaped key", body: `{"\u0070rograms":[{"windows":[` + window + `]}]}`},
		{name: "unknown key", body: `{"programs":[{"windows":[` + window + `],"name":"x"}]}`, status: 400},
		{name: "repeated key", body: body(`{"opcode":` + opcode + `,"opcode":` + opcode + `}`), status: 400},
		{name: "repeated key differing by case", body: body(`{"opcode":` + opcode + `,"OPCODE":` + opcode + `}`), status: 400},
		{name: "repeated programs key", body: `{"programs":[],"Programs":[{"windows":[` + window + `]}]}`, status: 400},
		// null in every slot.
		{name: "null body", body: `null`, status: 400, msg: emptyBatch},
		{name: "null programs", body: `{"programs":null}`, status: 400, msg: emptyBatch},
		{name: "null program", body: `{"programs":[null]}`, status: 400, msg: noWindows},
		{name: "null id", body: withID("null"), check: id("")},
		{name: "null windows", body: `{"programs":[{"windows":null}]}`, status: 400, msg: noWindows},
		{name: "null window", body: body("null"), status: 400, msg: noOpcodes},
		{name: "null opcode", body: body(`{"opcode":null}`), status: 400, msg: noOpcodes},
		{name: "null taken", body: withTaken("null")},
		{name: "null stride", body: body(`{"opcode":` + opcode + `,"stride":null}`)},
		{name: "null opcode element", body: withOpcodes("null"), check: firstOpcode(0)},
		// Numbers: int64 integers only.
		{name: "negative zero", body: withOpcodes("-0"), check: firstOpcode(0)},
		{name: "fraction", body: withOpcodes("1.0"), status: 400},
		{name: "exponent", body: withOpcodes("1e2"), status: 400},
		{name: "leading zero", body: withOpcodes("01"), status: 400},
		{name: "2^63", body: withTaken("9223372036854775808"), status: 400},
		{name: "-2^63-1", body: withTaken("-9223372036854775809"), status: 400},
		{name: "2^64", body: withTaken("18446744073709551616"), status: 400},
		{name: "-2^63", body: withTaken("-9223372036854775808"), status: 400,
			msg: "program 0 window 0: negative taken-branch count -9223372036854775808"},
		{name: "2^63-1", body: withTaken("9223372036854775807"), status: 400},
		{name: "count past limit", body: withOpcodes("1073741825"), status: 400,
			msg: "program 0 window 0: opcode 0 count 1073741825 outside [0, 1073741824]"},
		// Strings.
		{name: "angle bracket id", body: withID(`"<b>"`), check: id("<b>")},
		{name: "escaped angle bracket id", body: withID(`"\u003cb\u003e"`), check: id("<b>")},
		{name: "invalid UTF-8 id", body: withID("\"a\xffb\""), check: id("a\uFFFDb")},
		{name: "lone surrogate id", body: withID(`"\ud800"`), check: id("\uFFFD")},
		{name: "non-ASCII id", body: withID(`"défi"`), check: id("défi")},
		{name: "control character in id", body: withID("\"a\tb\""), status: 400},
		{name: "bad escape", body: withID(`"\x"`), status: 400},
		// Top-level values.
		{name: "top-level array", body: `[]`, status: 400},
		{name: "top-level number", body: `3`, status: 400},
		{name: "empty body", body: ``, status: 400},
		// After the value.
		{name: "trailing garbage", body: valid + " x", status: 400, msg: "request body holds more than one JSON value"},
		{name: "trailing value", body: valid + "{}", status: 400, msg: "request body holds more than one JSON value"},
		{name: "trailing whitespace", body: " \t\n" + valid + " \r\n\t "},
	}
}

// TestDetectRequestDecodeEdges pins the grammar edges, each checked
// against the oracle too.
func TestDetectRequestDecodeEdges(t *testing.T) {
	lim := Limits{MaxPrograms: 8, MaxWindows: 16, MinWindows: 1}
	for _, tc := range decodeEdgeCases() {
		t.Run(tc.name, func(t *testing.T) {
			programs, err := checkAgainstOracle(t, []byte(tc.body), lim)
			if tc.status == 0 {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				if tc.check != nil {
					tc.check(t, programs)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted, want %d", tc.status)
			}
			if got := StatusOf(err); got != tc.status {
				t.Errorf("status %d (%v), want %d", got, err, tc.status)
			}
			if tc.msg != "" && err.Error() != tc.msg {
				t.Errorf("message %q, want %q", err, tc.msg)
			}
		})
	}
}

// TestDetectRequestDecodeLimits checks that the scanner, which stores
// only MaxPrograms programs of MaxWindows windows, still reports the
// full counts, and that validation order matches the oracle.
func TestDetectRequestDecodeLimits(t *testing.T) {
	lim := Limits{MaxPrograms: 2, MaxWindows: 3, MinWindows: 2}
	w := testWindows(t, trace.Trojan, 0, 5)
	bad := EncodeWindows(w[:2])
	bad[1].Opcode[4] = -1
	cases := map[string]DetectRequest{
		"too many programs": {Programs: []ProgramJSON{{Windows: EncodeWindows(w[:2])}, {}, {Windows: EncodeWindows(w)}}},
		"too many windows":  {Programs: []ProgramJSON{{Windows: EncodeWindows(w[:2])}, {Windows: EncodeWindows(w)}}},
		"too few windows":   {Programs: []ProgramJSON{{Windows: EncodeWindows(w[:1])}, {Windows: EncodeWindows(w)}}},
		"bad window first":  {Programs: []ProgramJSON{{Windows: bad}, {Windows: EncodeWindows(w)}}},
		"long opcode":       {Programs: []ProgramJSON{{Windows: []WindowJSON{{Opcode: make([]int, 70)}, {}}}}},
		"accepted":          {Programs: []ProgramJSON{{ID: "a", Windows: EncodeWindows(w[:3])}, {ID: "b", Windows: EncodeWindows(w[1:3])}}},
	}
	for name, req := range cases {
		t.Run(name, func(t *testing.T) {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			programs, err := checkAgainstOracle(t, body, lim)
			if (err == nil) != (name == "accepted") {
				t.Fatalf("err = %v", err)
			}
			if err == nil && len(programs) != 2 {
				t.Fatalf("%d programs", len(programs))
			}
		})
	}
}

// TestDetectRequestDecodeOwnership checks that decoded windows stay the
// caller's: a later decode reuses the pooled scratch, never the
// returned slices.
func TestDetectRequestDecodeOwnership(t *testing.T) {
	first, err := DecodeDetectRequest(bytes.NewReader(detectBody(t, testWindows(t, trace.Trojan, 0, 4))), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	keep := append([]trace.WindowCounts(nil), first[0].Windows...)
	if cap(first[0].Windows) != len(first[0].Windows) {
		t.Errorf("windows cap %d, len %d: not exact", cap(first[0].Windows), len(first[0].Windows))
	}
	for i := 0; i < 4; i++ {
		if _, err := DecodeDetectRequest(bytes.NewReader(detectBody(t, testWindows(t, trace.Worm, i, 4))), Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(first[0].Windows, keep) {
		t.Error("a later decode overwrote returned windows")
	}
}

// TestDecodeDetectRequestAllocs pins the warm decode of one 16-window
// program: the reader, the program slice, its windows and its ID.
func TestDecodeDetectRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	body := detectBody(t, testWindows(t, trace.Trojan, 0, 16))
	decode := func() {
		if _, err := DecodeDetectRequest(bytes.NewReader(body), Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	allocs := testing.AllocsPerRun(50, decode)
	t.Logf("%.1f allocs per decode", allocs)
	if allocs > 6 {
		t.Errorf("warm 16-window decode: %.1f allocs, want <= 6", allocs)
	}
}

// TestOversizedBodyIs413 checks that a body past MaxBodyBytes is a 413
// whatever follows the JSON value.
func TestOversizedBodyIs413(t *testing.T) {
	srv := newTestServer(t, Config{Limits: Limits{MaxBodyBytes: 4 << 10}})
	handler := srv.Handler()
	valid := detectBody(t, testWindows(t, trace.Trojan, 0, 2))
	if len(valid) >= 4<<10 {
		t.Fatalf("valid body is %d bytes, not under the limit", len(valid))
	}
	pad := func(b byte) []byte { return bytes.Repeat([]byte{b}, 8<<10) }
	cases := map[string][]byte{
		"value":               bytes.Replace(valid, []byte(`"prog-0"`), append(append([]byte(`"`), pad('x')...), '"'), 1),
		"trailing whitespace": append(append([]byte{}, valid...), pad(' ')...),
		"trailing garbage":    append(append([]byte{}, valid...), pad('x')...),
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body)))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("status %d (%s), want 413", rec.Code, rec.Body.Bytes())
			}
		})
	}
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(valid)))
	if rec.Code != http.StatusOK {
		t.Errorf("in-limit body: status %d (%s)", rec.Code, rec.Body.Bytes())
	}
}

// BenchmarkDecodeDetectRequest compares the scanner with its oracle on
// one 16-window program.
func BenchmarkDecodeDetectRequest(b *testing.B) {
	body := detectBody(b, testWindows(b, trace.Trojan, 0, 16))
	for name, decode := range map[string]func(io.Reader, Limits) ([]DecodedProgram, error){
		"scanner": DecodeDetectRequest,
		"oracle":  oracleDecodeDetectRequest,
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := decode(bytes.NewReader(body), Limits{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
