package serve

import (
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync"
	"unicode/utf8"

	"shmd/internal/trace"
)

// The /v1/detect body is decoded in one pass over the body bytes by a
// small scanner that knows the request schema and writes counts
// straight into trace.WindowCounts: no reflection and no per-window
// intermediate slices. It accepts exactly the inputs encoding/json
// would decode into DetectRequest with DisallowUnknownFields, with
// one deliberate difference: an object that repeats a member name
// (including names that differ only by case) is rejected, as RFC 7493
// (I-JSON) requires, where encoding/json would merge the values.
// Member names match struct fields the way encoding/json matches
// them: exactly, else under Unicode simple case folding
// (strings.EqualFold, the relation bytes.EqualFold also implements).

// Member names of the three object kinds in a request body.
var (
	requestFields = []string{"programs"}
	programFields = []string{"id", "windows"}
	windowFields  = []string{"opcode", "taken", "stride"}
)

// Decoder scratch larger than this is dropped rather than pooled, so
// one oversized request does not pin its buffers for the process
// lifetime.
const (
	maxPooledBody    = 1 << 20
	maxPooledWindows = 1024
)

// programSpan is one stored program: its windows are
// wins[first:first+min(windows, MaxWindows)].
type programSpan struct {
	id    string
	first int
	// windows counts every window in the body, including any past
	// MaxWindows that were parsed but not stored.
	windows int
}

// windowShape is the element count of one window's opcode and stride
// arrays as sent; only the first NumOpcodes / StrideBuckets are stored.
type windowShape struct {
	opcodes, strides int
}

// detectDecoder is the pooled state of one DecodeDetectRequest call.
// Phase one (parse) reads the whole body and scans it, storing at
// most MaxPrograms programs of at most MaxWindows windows each and
// only counting anything past those limits; phase two
// (DecodeDetectRequest, program) applies the checks in request order.
type detectDecoder struct {
	buf []byte
	pos int
	// nprog counts every program in the body; progs holds the first
	// MaxPrograms of them.
	nprog  int
	progs  []programSpan
	wins   []trace.WindowCounts
	shapes []windowShape
	// Sinks for programs and windows past the limits.
	spareProg  programSpan
	spareWin   trace.WindowCounts
	spareShape windowShape
}

var decoders = sync.Pool{New: func() any { return new(detectDecoder) }}

// release returns d to the pool, dropping oversized scratch and the
// program IDs (the caller owns those now).
func (d *detectDecoder) release() {
	if cap(d.buf) > maxPooledBody {
		d.buf = nil
	}
	if cap(d.wins) > maxPooledWindows {
		d.wins, d.shapes = nil, nil
	}
	clear(d.progs)
	decoders.Put(d)
}

// parse reads all of r and scans the one JSON value at its start.
// Trailing bytes after that value are left for the caller to check.
func (d *detectDecoder) parse(r io.Reader, lim Limits) error {
	if err := d.read(r); err != nil {
		return err
	}
	d.pos, d.nprog = 0, 0
	d.progs, d.wins, d.shapes = d.progs[:0], d.wins[:0], d.shapes[:0]
	if d.null() {
		return nil
	}
	return d.object(requestFields, func(int) error { return d.programList(lim) })
}

// read fills d.buf with the whole body. A read error (such as
// http.MaxBytesError) is returned as is, before any parsing, so an
// oversized body is a 413 whatever its content.
func (d *detectDecoder) read(r io.Reader) error {
	b := d.buf[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 512)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			d.buf = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// programList parses the "programs" array.
func (d *detectDecoder) programList(lim Limits) error {
	if d.null() {
		return nil
	}
	return d.array(func() error {
		p := &d.spareProg
		keep := d.nprog < lim.MaxPrograms
		if keep {
			d.progs = append(d.progs, programSpan{first: len(d.wins)})
			p = &d.progs[len(d.progs)-1]
		}
		d.nprog++
		if d.null() {
			return nil
		}
		return d.object(programFields, func(f int) (err error) {
			if f == 0 {
				p.id, err = d.stringValue(keep)
				return err
			}
			return d.windowList(p, keep, lim)
		})
	})
}

// windowList parses one program's "windows" array, storing the first
// MaxWindows windows of a stored program.
func (d *detectDecoder) windowList(p *programSpan, keep bool, lim Limits) error {
	if d.null() {
		return nil
	}
	return d.array(func() error {
		wc, sh := &d.spareWin, &d.spareShape
		if keep && p.windows < lim.MaxWindows {
			d.wins = append(d.wins, trace.WindowCounts{})
			d.shapes = append(d.shapes, windowShape{})
			wc, sh = &d.wins[len(d.wins)-1], &d.shapes[len(d.shapes)-1]
		}
		p.windows++
		if d.null() {
			return nil
		}
		return d.object(windowFields, func(f int) (err error) {
			switch f {
			case 0:
				sh.opcodes, err = d.counts(wc.Opcode[:])
			case 1:
				wc.Taken, err = d.integer()
			default:
				sh.strides, err = d.counts(wc.Stride[:])
			}
			return err
		})
	})
}

// object parses an object whose member names must each match one of
// fields, at most once, calling member with the field's index once
// the name and its colon are consumed.
func (d *detectDecoder) object(fields []string, member func(field int) error) error {
	if !d.consume('{') {
		return d.syntaxError("'{'")
	}
	if d.consume('}') {
		return nil
	}
	var seen uint
	for {
		f, err := d.key(fields)
		if err != nil {
			return err
		}
		if seen&(1<<f) != 0 {
			return badRequest("json: repeated field %q", fields[f])
		}
		seen |= 1 << f
		if !d.consume(':') {
			return d.syntaxError("':'")
		}
		if err := member(f); err != nil {
			return err
		}
		if d.consume(',') {
			continue
		}
		if d.consume('}') {
			return nil
		}
		return d.syntaxError("',' or '}'")
	}
}

// array parses an array, calling elem once per element.
func (d *detectDecoder) array(elem func() error) error {
	if !d.consume('[') {
		return d.syntaxError("'['")
	}
	if d.consume(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if d.consume(',') {
			continue
		}
		if d.consume(']') {
			return nil
		}
		return d.syntaxError("',' or ']'")
	}
}

// counts parses an array of integers (or null) into dst, storing the
// first len(dst) and returning how many elements there were.
func (d *detectDecoder) counts(dst []int) (n int, err error) {
	if d.null() {
		return 0, nil
	}
	err = d.array(func() error {
		v, err := d.integer()
		if n < len(dst) {
			dst[n] = v
		}
		n++
		return err
	})
	return n, err
}

// integer parses an integer in the int64 range, or null (which leaves
// the count zero). A fraction or exponent is left unconsumed, so the
// caller's separator check rejects it.
func (d *detectDecoder) integer() (int, error) {
	if d.null() {
		return 0, nil
	}
	b, i := d.buf, d.pos
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	first := i
	var u uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		u = u*10 + uint64(b[i]-'0')
	}
	switch digits := i - first; {
	case digits == 0 || digits > 1 && b[first] == '0':
		d.pos = first + min(digits, 1) // the non-digit, or the digit after a leading zero
		return 0, d.syntaxError("a number")
	case digits > 19 || u > math.MaxInt64 && !(neg && u == math.MaxInt64+1):
		// 19 digits cannot wrap a uint64; more always overflow.
		return 0, badRequest("json: number at offset %d overflows int64", start)
	}
	d.pos = i
	if neg {
		return int(-u), nil
	}
	return int(u), nil
}

// stringValue parses a string (or null, the empty string), returning
// its value only when keep is set.
func (d *detectDecoder) stringValue(keep bool) (string, error) {
	if d.null() {
		return "", nil
	}
	raw, plain, err := d.stringToken()
	if err != nil || !keep {
		return "", err
	}
	return unquote(raw, plain)
}

// key parses an object member name and returns the index of the field
// it names.
func (d *detectDecoder) key(fields []string) (int, error) {
	raw, plain, err := d.stringToken()
	if err != nil {
		return 0, err
	}
	// Exact names, the common case, match without allocating.
	if plain {
		for f, field := range fields {
			if string(raw[1:len(raw)-1]) == field {
				return f, nil
			}
		}
	}
	name, err := unquote(raw, plain)
	if err != nil {
		return 0, err
	}
	for f, field := range fields {
		if strings.EqualFold(name, field) {
			return f, nil
		}
	}
	return 0, badRequest("json: unknown field %q", name)
}

// stringToken scans one string token and returns it with its quotes.
// plain reports printable ASCII without escapes, whose value is the
// bytes between the quotes.
func (d *detectDecoder) stringToken() (raw []byte, plain bool, err error) {
	if !d.consume('"') {
		return nil, false, d.syntaxError("a string")
	}
	b, start := d.buf, d.pos-1
	plain = true
	for i := d.pos; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.pos = i + 1
			return b[start:d.pos], plain, nil
		case c == '\\':
			plain = false
			if i++; i >= len(b) {
				break // unterminated: the loop ends
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for j := 0; j < 4; j++ {
					if i++; i >= len(b) || !isHex(b[i]) {
						d.pos = i
						return nil, false, d.syntaxError("a hex digit in \\u escape")
					}
				}
			default:
				d.pos = i
				return nil, false, d.syntaxError("an escape character")
			}
		case c < 0x20:
			d.pos = i
			return nil, false, d.syntaxError("a string character (control characters must be escaped)")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	d.pos = len(b)
	return nil, false, d.syntaxError("'\"'")
}

// unquote returns the value of a string token. A plain token is the
// bytes between its quotes; any other defers to encoding/json, so
// escapes, invalid UTF-8 and lone surrogates (U+FFFD) decode exactly as
// they always have.
func unquote(raw []byte, plain bool) (string, error) {
	if plain {
		return string(raw[1 : len(raw)-1]), nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return "", badRequest("json: %v", err)
	}
	return s, nil
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// null consumes a null literal if one comes next.
func (d *detectDecoder) null() bool {
	d.skipSpace()
	if d.pos+4 <= len(d.buf) && string(d.buf[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

// consume skips whitespace and consumes c if it comes next.
func (d *detectDecoder) consume(c byte) bool {
	d.skipSpace()
	if d.pos < len(d.buf) && d.buf[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

func (d *detectDecoder) skipSpace() {
	b, i := d.buf, d.pos
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	d.pos = i
}

// isSpace reports JSON whitespace.
func isSpace(c byte) bool {
	return c <= ' ' && (c == ' ' || c == '\t' || c == '\n' || c == '\r')
}

// syntaxError reports the byte at d.pos where want was expected.
func (d *detectDecoder) syntaxError(want string) error {
	if d.pos >= len(d.buf) {
		return badRequest("json: unexpected end of input, want %s", want)
	}
	return badRequest("json: invalid character %q at offset %d, want %s", d.buf[d.pos], d.pos, want)
}
