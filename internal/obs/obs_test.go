package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestTracePhasesWellFormed(t *testing.T) {
	tr := NewTrace("SELECT 1")
	tr.Phase("parse")
	tr.Phase("plan").SetAttr("fresh")
	ex := tr.Phase("execute")
	ex.SetRows(42)
	tr.Finish()

	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Spans()); got != 4 { // root + 3 phases
		t.Fatalf("got %d spans, want 4", got)
	}
	if sp := tr.FindSpan("execute"); sp == nil || sp.Rows != 42 {
		t.Fatalf("execute span = %+v", sp)
	}
	if sp := tr.FindSpan("plan"); sp == nil || sp.Attr != "fresh" {
		t.Fatalf("plan span = %+v", sp)
	}
	// Phases partition the root: each starts where its elder ended.
	spans := tr.Spans()
	for i := 2; i < len(spans); i++ {
		if spans[i].Start != spans[i-1].End {
			t.Fatalf("phase %q starts at %v, elder ended at %v", spans[i].Name, spans[i].Start, spans[i-1].End)
		}
	}
}

func TestTraceNestedSpans(t *testing.T) {
	tr := NewTrace("x")
	p := tr.Phase("plan")
	inner := tr.StartSpan("optimize")
	inner.End()
	_ = p
	tr.Phase("execute")
	tr.Finish()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	sp := tr.FindSpan("optimize")
	if sp == nil {
		t.Fatal("optimize span missing")
	}
	if parent := tr.Spans()[sp.Parent].Name; parent != "plan" {
		t.Fatalf("optimize parent = %q, want plan", parent)
	}
}

func TestTraceFinishClosesOpenSpans(t *testing.T) {
	tr := NewTrace("x")
	tr.StartSpan("a")
	tr.StartSpan("b") // left open on purpose
	tr.Finish()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr.Finish() // idempotent
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsUnfinished(t *testing.T) {
	tr := NewTrace("x")
	if err := tr.Validate(); err == nil {
		t.Fatal("unfinished trace validated")
	}
}

func TestTraceRingEvictsOldest(t *testing.T) {
	r := NewTraceRing(3)
	for i := 0; i < 5; i++ {
		tr := NewTrace(fmt.Sprintf("q%d", i))
		tr.Finish()
		r.Add(tr)
	}
	got := r.Traces()
	if len(got) != 3 {
		t.Fatalf("ring kept %d, want 3", len(got))
	}
	for i, tr := range got {
		want := fmt.Sprintf("q%d", i+2)
		if tr.Statement != want {
			t.Errorf("ring[%d] = %q, want %q", i, tr.Statement, want)
		}
	}
	if r.Added() != 5 {
		t.Fatalf("Added = %d, want 5", r.Added())
	}
}

func TestRegistryCountersAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.hits")
	c.Inc()
	c.Add(2)
	if r.Counter("a.hits") != c {
		t.Fatal("get-or-create returned a different counter")
	}
	r.Gauge("a.level").Set(-7)
	r.FloatCounter("a.cost").Add(1.5)
	r.FloatCounter("a.cost").Add(2.25)
	h := r.Histogram("a.lat", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	snap := r.Snapshot()
	if snap["a.hits"] != int64(3) {
		t.Errorf("hits = %v", snap["a.hits"])
	}
	if snap["a.level"] != int64(-7) {
		t.Errorf("level = %v", snap["a.level"])
	}
	if snap["a.cost"] != 3.75 {
		t.Errorf("cost = %v", snap["a.cost"])
	}
	hs, ok := snap["a.lat"].(HistogramSnapshot)
	if !ok {
		t.Fatalf("lat = %T", snap["a.lat"])
	}
	if hs.Count != 3 || hs.Sum != 5055 {
		t.Errorf("lat snapshot = %+v", hs)
	}
	wantCounts := []int64{1, 1, 1}
	for i, w := range wantCounts {
		if hs.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, hs.Counts[i], w)
		}
	}
}

func TestRegistryHandlerServesJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(9)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got["x"] != float64(9) {
		t.Fatalf("handler served %v", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.FloatCounter("f").Add(0.5)
				r.Histogram("h", DefaultLatencyBuckets).Observe(float64(i))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("c = %d, want 8000", got)
	}
	if got := r.FloatCounter("f").Value(); got != 4000 {
		t.Fatalf("f = %v, want 4000", got)
	}
}

func TestObsSamplingAndContext(t *testing.T) {
	o := New()
	if tr := o.StartStatementTrace("q"); tr != nil {
		t.Fatal("tracing disabled but trace started")
	}
	o.EnableTracing(4, 2)
	var traced int
	for i := 0; i < 10; i++ {
		if tr := o.StartStatementTrace("q"); tr != nil {
			traced++
			o.FinishTrace(tr)
		}
	}
	if traced != 5 {
		t.Fatalf("stride 2 traced %d of 10", traced)
	}
	if got := len(o.Traces()); got != 4 {
		t.Fatalf("ring kept %d, want 4", got)
	}

	tr := NewTrace("outer")
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("context round-trip failed")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context returned a trace")
	}
	o.FinishTrace(nil) // must not panic
}
