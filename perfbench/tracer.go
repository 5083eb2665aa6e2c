package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a module's public
// function. Spans of one request share req; parent is the index of
// the span that caused this one (-1 for a root).
type span struct {
	name       string
	req        int64
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in a buffer allocated before timing and writes
// them out after the run. A nil *tracer records nothing, so untraced
// runs pay one nil check per call site.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

// maxSpans bounds the in-memory span buffer; later spans are counted
// as dropped instead of growing it.
const maxSpans = 1 << 20

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, maxSpans)}
}

// begin opens a span and returns its handle (-1 when not recorded).
func (t *tracer) begin(name string, req int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= maxSpans {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{name: name, req: req, parent: parent, start: time.Since(t.epoch).Nanoseconds()}
	return int32(i)
}

// end closes a span opened by begin.
func (t *tracer) end(h int32) {
	if t == nil || h < 0 {
		return
	}
	t.spans[h].end = time.Since(t.epoch).Nanoseconds()
}

// count is the number of spans recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	return int(min(t.next.Load(), maxSpans))
}

// selfNS sums, per span name, the span's duration minus the part its
// child spans cover (children of one span do not overlap here: each
// request's calls are sequential).
func (t *tracer) selfNS() map[string]int64 {
	n := t.count()
	self := make(map[string]int64)
	for i := 0; i < n; i++ {
		s := t.spans[i]
		if s.end == 0 {
			continue
		}
		self[s.name] += s.end - s.start
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= s.end - s.start
		}
	}
	return self
}

// write stores every recorded span as one JSON line in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := 0; i < t.count(); i++ {
		s := t.spans[i]
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"req\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			i, s.name, s.req, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
