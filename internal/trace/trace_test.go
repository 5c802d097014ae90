package trace

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	tp := sc.Traceparent()
	if !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("bad traceparent %q", tp)
	}
	back, ok := ParseTraceparent(tp)
	if !ok || back != sc {
		t.Fatalf("round trip: %v %v != %v", ok, back, sc)
	}
	for _, bad := range []string{"", "00-xyz-abc-01", "00-" + sc.TraceID + "-short-01", "nonsense", "00-" + sc.TraceID + "-" + sc.SpanID, "ZZ" + tp[2:]} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
}

func TestSpanParenting(t *testing.T) {
	store := NewStore(16, 128)
	tr := New(WithStore(store))
	root := tr.StartTrace("", "job", ClassSched)
	ctx := ContextWithSpan(context.Background(), root)
	ctx, child := Start(ctx, "task A", ClassControl)
	_, grand := Start(ctx, "rpc", ClassControl)
	grand.SetAttr("method", "FillCellJKem")
	grand.Event("retry", "attempt", "2")
	grand.End()
	child.End()
	root.End()

	recs := store.Trace(root.TraceID())
	if len(recs) != 3 {
		t.Fatalf("stored %d spans, want 3", len(recs))
	}
	byName := map[string]Record{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["task A"].Parent != byName["job"].SpanID {
		t.Error("task not parented under job")
	}
	if byName["rpc"].Parent != byName["task A"].SpanID {
		t.Error("rpc not parented under task")
	}
	if byName["rpc"].Attrs["method"] != "FillCellJKem" {
		t.Error("attr lost")
	}
	if len(byName["rpc"].Events) != 1 || byName["rpc"].Events[0].Attrs["attempt"] != "2" {
		t.Error("event lost")
	}
	if got := Orphans(recs); len(got) != 0 {
		t.Errorf("orphans in a fully-linked trace: %v", got)
	}
}

func TestNilSpanSafe(t *testing.T) {
	var s *Span
	s.SetAttr("k", "v")
	s.Event("e")
	s.SetError(errors.New("x"))
	s.End()
	s.EndErr(nil)
	if s.Context().Valid() || s.TraceID() != "" {
		t.Fatal("nil span has identity")
	}
	ctx, sp := Start(context.Background(), "noop", "")
	if sp != nil {
		t.Fatal("Start without tracer minted a span")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("context gained a span")
	}
}

func TestRemoteParenting(t *testing.T) {
	store := NewStore(4, 16)
	tr := New(WithStore(store))
	client := tr.StartTrace("", "call", ClassControl)
	tp := client.Context().Traceparent()

	// The "daemon side": parse the envelope field, parent under it.
	remote, ok := ParseTraceparent(tp)
	if !ok {
		t.Fatal(tp)
	}
	server := tr.StartRemote(remote, "serve", ClassControl)
	server.End()
	client.End()

	recs := store.Trace(client.TraceID())
	if len(recs) != 2 {
		t.Fatalf("got %d spans", len(recs))
	}
	for _, r := range recs {
		if r.Name == "serve" && r.Parent != client.Context().SpanID {
			t.Errorf("server span parent %q, want client %q", r.Parent, client.Context().SpanID)
		}
	}
}

func TestTailSamplingKeepsErrors(t *testing.T) {
	store := NewStore(16, 128)
	rec := NewRecorder(32)
	tr := New(WithStore(store), WithRecorder(rec), WithSampler(Never{}))

	ok := tr.StartTrace("", "fine", ClassAnalysis)
	lead := tr.StartRemote(ok.Context(), "lead-up", ClassData)
	lead.End() // dropped by head sampling, held in recorder ring
	ok.End()
	if got := store.Trace(ok.TraceID()); len(got) != 0 {
		t.Fatalf("unsampled healthy trace reached the store: %d spans", len(got))
	}

	bad := tr.StartTrace("", "dies", ClassInstrument)
	prior := tr.StartRemote(bad.Context(), "prior-work", ClassData)
	prior.End() // unsampled — must be rescued by the flight dump
	bad.EndErr(errors.New("boom"))

	got := store.Trace(bad.TraceID())
	names := map[string]bool{}
	for _, r := range got {
		names[r.Name] = true
	}
	if !names["dies"] {
		t.Error("error span itself not kept")
	}
	if !names["prior-work"] {
		t.Error("flight recorder did not dump the lead-up span")
	}
	st := tr.Stats()
	if st.TailRescued == 0 || st.Errors == 0 || st.RecorderDump == 0 {
		t.Errorf("stats missed tail sampling: %+v", st)
	}
}

func TestRatioSamplerDeterministic(t *testing.T) {
	r := Ratio(0.5)
	kept := 0
	const n = 2000
	for i := 0; i < n; i++ {
		id := NewTraceID()
		a, b := r.Sample(id), r.Sample(id)
		if a != b {
			t.Fatal("sampling not deterministic per trace")
		}
		if a {
			kept++
		}
	}
	if kept < n/3 || kept > 2*n/3 {
		t.Errorf("ratio 0.5 kept %d/%d", kept, n)
	}
	if (Ratio(1)).Sample("zz") != true || (Ratio(0)).Sample(NewTraceID()) != false {
		t.Error("edge ratios wrong")
	}
}

func TestJSONLExporterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spans.jsonl")
	exp, err := NewJSONLExporter(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(WithExporter(exp))
	root := tr.StartTrace("", "job", ClassSched)
	kid := tr.StartRemote(root.Context(), "read", ClassData)
	kid.Event("redial")
	kid.End()
	root.End()
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d spans, want 2", len(recs))
	}

	// Crash-safety contract: a truncated trailing line is tolerated...
	data, _ := os.ReadFile(path)
	trunc := data[:len(data)-7]
	recs, err = ReadSpans(strings.NewReader(string(trunc)))
	if err != nil || len(recs) != 1 {
		t.Fatalf("truncated tail: %d spans, err %v (want 1, nil)", len(recs), err)
	}
	// ...but corruption mid-file is not.
	corrupt := append([]byte("{garbage}\n"), data...)
	if _, err := ReadSpans(strings.NewReader(string(corrupt))); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

// TestJSONLExporterReopenAfterCrash: a restarted daemon exporting to
// the same path as its killed predecessor must not glue its first span
// onto the torn record left behind.
func TestJSONLExporterReopenAfterCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	export := func(names ...string) {
		t.Helper()
		exp, err := NewJSONLExporter(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr := New(WithExporter(exp))
		for _, name := range names {
			tr.StartTrace("", name, ClassSched).End()
		}
		if err := exp.Close(); err != nil {
			t.Fatal(err)
		}
	}
	export("first", "second")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"trace_id":"` + strings.Repeat("a", 32) + `","span_id":"`) // kill -9 mid-flush
	f.Close()
	export("third", "fourth")

	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range recs {
		names = append(names, r.Name)
	}
	if strings.Join(names, ",") != "first,second,third,fourth" {
		t.Fatalf("spans after restart = %v, want first..fourth", names)
	}
}

func TestStoreBounds(t *testing.T) {
	s := NewStore(2, 2)
	mk := func(tid string, n int) {
		for i := 0; i < n; i++ {
			s.Add(Record{TraceID: tid, SpanID: NewSpanID(), Name: "s", Start: time.Now(), End: time.Now()})
		}
	}
	mk(strings.Repeat("a", 32), 3) // third span dropped
	mk(strings.Repeat("b", 32), 1)
	mk(strings.Repeat("c", 32), 1) // evicts trace a
	st := s.Stats()
	if st.Traces != 2 || st.EvictedTraces != 1 || st.DroppedSpans != 1 {
		t.Fatalf("bounds not enforced: %+v", st)
	}
	if got := s.Trace(strings.Repeat("a", 32)); got != nil {
		t.Fatal("evicted trace still served")
	}
	if got := s.Summaries(); len(got) != 2 {
		t.Fatalf("summaries %d, want 2", len(got))
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(3)
	tid := strings.Repeat("d", 32)
	for i := 0; i < 5; i++ {
		r.Note(Record{TraceID: tid, SpanID: NewSpanID(), Name: "s", Start: time.Now(), End: time.Now()}, false)
	}
	got := r.Dump(tid)
	if len(got) != 3 {
		t.Fatalf("ring dumped %d, want capacity 3", len(got))
	}
	if again := r.Dump(tid); len(again) != 0 {
		t.Fatalf("double dump returned %d spans", len(again))
	}
	st := r.Stats()
	if st.Evicted != 2 || st.Noted != 5 || st.Dumped != 3 {
		t.Fatalf("recorder stats %+v", st)
	}
}
