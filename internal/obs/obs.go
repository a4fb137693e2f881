package obs

import (
	"context"
	"sync/atomic"
)

// Obs bundles one engine instance's observability state: the metrics
// registry (always on — counters are single atomic adds) and the
// statement tracer (off by default; when enabled, every stride-th
// statement records a span tree into a bounded ring).
//
// Sampling exists because a full span tree costs a handful of clock
// reads and one allocation per statement — noise for a TPC-H batch,
// but measurable against a cached point lookup. Stride 1 traces every
// statement (what the invariant tests use); the default stride keeps
// the hot-path overhead under the budget while still retaining a
// steady stream of recent traces.
type Obs struct {
	Reg *Registry

	enabled atomic.Bool
	stride  atomic.Int64
	ctr     atomic.Int64
	ring    atomic.Pointer[TraceRing]
}

// DefaultRingSize is the trace ring capacity used when none is given.
const DefaultRingSize = 64

// DefaultStride is the sampling stride used when none is given: one
// traced statement out of every 16. A full span tree costs on the
// order of 1.5µs (clock reads, one arena allocation, ring retention),
// so on a ~2.5µs cached point lookup — the engine's fastest statement
// — stride 16 amortizes to a few percent, within the tracing budget.
const DefaultStride = 16

// New returns observability state with tracing disabled.
func New() *Obs {
	o := &Obs{Reg: NewRegistry()}
	o.stride.Store(DefaultStride)
	o.ring.Store(NewTraceRing(DefaultRingSize))
	return o
}

// EnableTracing turns statement tracing on with a fresh ring of the
// given capacity (DefaultRingSize when <= 0) sampling every stride-th
// statement (DefaultStride when <= 0; 1 traces everything).
func (o *Obs) EnableTracing(ringSize, stride int) {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	if stride <= 0 {
		stride = DefaultStride
	}
	o.ring.Store(NewTraceRing(ringSize))
	o.stride.Store(int64(stride))
	o.ctr.Store(0)
	o.enabled.Store(true)
}

// StartStatementTrace returns a new trace for the statement when
// tracing is on and the sampler selects it, else nil. The nil check is
// the entire disabled-path cost.
func (o *Obs) StartStatementTrace(statement string) *Trace {
	if !o.enabled.Load() {
		return nil
	}
	if s := o.stride.Load(); s > 1 && o.ctr.Add(1)%s != 0 {
		return nil
	}
	return NewTrace(statement)
}

// FinishTrace finishes the trace and retains it in the ring. Safe to
// call with nil.
func (o *Obs) FinishTrace(t *Trace) {
	if t == nil {
		return
	}
	t.Finish()
	o.ring.Load().Add(t)
}

// Traces returns the retained traces, oldest first.
func (o *Obs) Traces() []*Trace { return o.ring.Load().Traces() }

// ctxKey carries a caller-owned trace through a context.Context.
type ctxKey struct{}

// WithTrace attaches a trace to the context; the engine records its
// pipeline spans under the innermost open span of a context-carried
// trace instead of starting (and ring-retaining) its own.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
