// Package obs is the engine's zero-dependency observability layer:
// per-statement span traces (with a bounded ring of recent traces) and a
// typed metrics registry exported as a JSON snapshot. Everything here is
// allocation-conscious — the span tree for one statement lives in a
// single arena allocation — because the trace path rides the statement
// hot path.
package obs

import (
	"fmt"
	"strings"
	"time"
)

// Span is one timed phase of a statement trace. Times are offsets from
// the trace's start on the monotonic clock, so within one trace they
// are totally ordered and never jump backwards.
type Span struct {
	Name   string
	Start  time.Duration // offset from Trace.Began
	End    time.Duration // zero-valued means still open (see Done)
	Done   bool          // true once the span has been closed
	Parent int32         // index of the parent span; -1 for the root
	Rows   int64         // optional: rows produced by the phase
	Attr   string        // optional: one free-form annotation
}

// Duration returns the span's elapsed time.
func (s *Span) Duration() time.Duration { return s.End - s.Start }

// Trace is the span tree of one statement execution. It is owned by the
// statement's goroutine and is NOT safe for concurrent use until it has
// been finished and handed to the ring; readers only ever see finished
// traces.
//
// The engine records the per-statement pipeline as a flat sequence of
// phase spans under the root (parse → lock-wait → plan → execute →
// observe); arbitrary nesting is available through StartSpan for
// callers that need it.
type Trace struct {
	// Statement is the SQL text the trace describes.
	Statement string
	// Began is the wall-clock start (the span offsets are monotonic).
	Began time.Time
	// Provenance records how the plan was obtained: "fresh",
	// "cached (exact)", "cached (rebound)" or "uncached".
	Provenance string
	// Requests is the number of what-if requests captured in the
	// statement's AND/OR tree (0 for DDL).
	Requests int
	// Err holds the statement error, if any.
	Err string

	t0    time.Time
	spans []Span
	stack []int32 // open-span stack; stack[0] is always the root
	phase int32   // currently open engine phase span, or -1
	fin   bool
}

// traceArenaCap is the span capacity preallocated with the trace; the
// engine's own pipeline uses six spans, so one allocation covers the
// common case with room for caller nesting.
const traceArenaCap = 8

// NewTrace starts a trace for one statement with its root span open.
func NewTrace(statement string) *Trace {
	t := &Trace{
		Statement: statement,
		Began:     time.Now(),
		spans:     make([]Span, 1, traceArenaCap),
		phase:     -1,
	}
	t.t0 = t.Began
	t.spans[0] = Span{Name: "statement", Parent: -1}
	t.stack = append(t.stack, 0)
	return t
}

// SpanRef identifies one span of a trace for End/annotation calls.
type SpanRef struct {
	t   *Trace
	idx int32
}

// StartSpan opens a span as a child of the innermost open span.
func (t *Trace) StartSpan(name string) SpanRef {
	return t.startAt(name, time.Since(t.t0))
}

func (t *Trace) startAt(name string, at time.Duration) SpanRef {
	parent := t.stack[len(t.stack)-1]
	idx := int32(len(t.spans))
	t.spans = append(t.spans, Span{Name: name, Start: at, Parent: parent})
	t.stack = append(t.stack, idx)
	return SpanRef{t: t, idx: idx}
}

// End closes the span and any still-open descendants.
func (r SpanRef) End() {
	r.t.endAt(r.idx, time.Since(r.t.t0))
}

func (t *Trace) endAt(idx int32, at time.Duration) {
	// Pop the stack down to (and including) idx, closing everything on
	// the way so no descendant is left dangling.
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		sp := &t.spans[top]
		if !sp.Done {
			sp.End = at
			sp.Done = true
		}
		if top == idx {
			return
		}
	}
}

// SetRows annotates the span with a row count.
func (r SpanRef) SetRows(n int64) { r.t.spans[r.idx].Rows = n }

// SetAttr annotates the span with a free-form string.
func (r SpanRef) SetAttr(a string) { r.t.spans[r.idx].Attr = a }

// Phase closes the currently open engine phase (if any) and opens the
// next as a direct child of the root, sharing a single clock read — the
// engine's pipeline phases are sequential, so the boundary instant is
// both the end of one and the start of the next.
func (t *Trace) Phase(name string) SpanRef {
	at := time.Since(t.t0)
	if t.phase >= 0 {
		// Close the previous phase (and anything nested in it).
		t.endAt(t.phase, at)
	}
	r := t.startAt(name, at)
	t.phase = r.idx
	return r
}

// EndPhase closes the currently open engine phase span.
func (t *Trace) EndPhase() {
	if t.phase >= 0 {
		t.endAt(t.phase, time.Since(t.t0))
		t.phase = -1
	}
}

// Finish closes every open span, the root included. It is idempotent.
func (t *Trace) Finish() {
	if t.fin {
		return
	}
	t.endAt(0, time.Since(t.t0))
	t.phase = -1
	t.fin = true
}

// Total returns the root span's duration.
func (t *Trace) Total() time.Duration { return t.spans[0].End }

// Spans returns the trace's spans in start order (the root is first).
// The returned slice is the trace's own storage: callers must not
// mutate it, and must only call this on finished traces.
func (t *Trace) Spans() []Span { return t.spans }

// FindSpan returns the first span with the given name, or nil.
func (t *Trace) FindSpan(name string) *Span {
	for i := range t.spans {
		if t.spans[i].Name == name {
			return &t.spans[i]
		}
	}
	return nil
}

// Validate checks the structural invariants of a finished trace: every
// span closed with End ≥ Start, every child contained in its parent's
// interval, and sibling starts monotone in creation order. It returns
// the first violation found.
func (t *Trace) Validate() error {
	if !t.fin {
		return fmt.Errorf("obs: trace %q not finished", t.Statement)
	}
	if len(t.spans) == 0 || t.spans[0].Parent != -1 {
		return fmt.Errorf("obs: trace %q has no root span", t.Statement)
	}
	lastStart := make(map[int32]time.Duration, len(t.spans))
	for i := range t.spans {
		sp := &t.spans[i]
		if !sp.Done {
			return fmt.Errorf("obs: span %q is unfinished", sp.Name)
		}
		if sp.End < sp.Start {
			return fmt.Errorf("obs: span %q ends (%v) before it starts (%v)", sp.Name, sp.End, sp.Start)
		}
		if i == 0 {
			continue
		}
		if sp.Parent < 0 || int(sp.Parent) >= i {
			return fmt.Errorf("obs: span %q has invalid parent %d", sp.Name, sp.Parent)
		}
		p := &t.spans[sp.Parent]
		if sp.Start < p.Start || sp.End > p.End {
			return fmt.Errorf("obs: span %q [%v,%v] escapes parent %q [%v,%v]",
				sp.Name, sp.Start, sp.End, p.Name, p.Start, p.End)
		}
		if prev, ok := lastStart[sp.Parent]; ok && sp.Start < prev {
			return fmt.Errorf("obs: span %q starts (%v) before its elder sibling (%v)", sp.Name, sp.Start, prev)
		}
		lastStart[sp.Parent] = sp.Start
	}
	return nil
}

// String renders the span tree with timings, one span per line.
func (t *Trace) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %q", t.Statement)
	if t.Provenance != "" {
		fmt.Fprintf(&sb, " plan=%s", t.Provenance)
	}
	if t.Requests > 0 {
		fmt.Fprintf(&sb, " requests=%d", t.Requests)
	}
	if t.Err != "" {
		fmt.Fprintf(&sb, " err=%q", t.Err)
	}
	sb.WriteByte('\n')
	depth := make([]int, len(t.spans))
	for i := range t.spans {
		sp := &t.spans[i]
		if i > 0 {
			depth[i] = depth[sp.Parent] + 1
		}
		sb.WriteString(strings.Repeat("  ", depth[i]+1))
		fmt.Fprintf(&sb, "%s %v", sp.Name, sp.Duration())
		if sp.Rows > 0 {
			fmt.Fprintf(&sb, " rows=%d", sp.Rows)
		}
		if sp.Attr != "" {
			fmt.Fprintf(&sb, " [%s]", sp.Attr)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
