package main

import (
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// parent indexes the enclosing span, -1 at a root.
type span struct {
	name       string
	scheme     string
	start, end time.Duration
	parent     int32
	// allocs is the heap bytes allocated inside the span, for spans
	// begun with beginAlloc; until end it holds the counter at begin.
	allocs   uint64
	withHeap bool
}

// tracer keeps spans in memory for the whole run; they are aggregated
// once, after the last op. A nil *tracer records nothing, so the
// untraced rounds pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
	// heapPeak is the largest live-heap reading taken at span ends.
	heapPeak uint64
	samples  []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		t0: time.Now(),
		samples: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/memory/classes/heap/objects:bytes"},
		},
	}
}

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name, scheme string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if k := len(t.open); k > 0 {
		parent = t.open[k-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, scheme: scheme, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, id)
	return id
}

// beginAlloc is begin for a span whose allocated bytes are also wanted.
// The runtime/metrics read costs about a microsecond, so it is kept off
// the per-Plan spans.
func (t *tracer) beginAlloc(name, scheme string) int32 {
	if t == nil {
		return -1
	}
	metrics.Read(t.samples)
	before := t.samples[0].Value.Uint64()
	id := t.begin(name, scheme)
	t.spans[id].withHeap = true
	t.spans[id].allocs = before
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = time.Since(t.t0)
	if s.withHeap {
		metrics.Read(t.samples)
		s.allocs = t.samples[0].Value.Uint64() - s.allocs
		if h := t.samples[1].Value.Uint64(); h > t.heapPeak {
			t.heapPeak = h
		}
	}
	t.open = t.open[:len(t.open)-1]
}

func (s *span) seconds() float64 { return (s.end - s.start).Seconds() }

// root returns the id of the outermost span enclosing id.
func (t *tracer) root(id int32) int32 {
	for t.spans[id].parent >= 0 {
		id = t.spans[id].parent
	}
	return id
}
