package obsv_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/memory"
	"repro/internal/obsv"
	"repro/internal/protocol"
)

// fakeEvents builds a small synthetic trace.
func fakeEvents() []protocol.TraceEvent {
	return []protocol.TraceEvent{
		{Seq: 1, Time: 10, Proc: 4, Op: "miss", BaseLine: 0, Kind: protocol.KindRead, Rd: 1, Detail: "state=I"},
		{Seq: 2, Time: 12, Proc: 4, Op: "send", Msg: "ReadReq", BaseLine: 0},
		{Seq: 3, Time: 900, Proc: 0, Op: "handle", Msg: "ReadReq", BaseLine: 0, Req: 4},
		{Seq: 4, Time: 905, Proc: 0, Op: "downgrade", BaseLine: 0, State: memory.Shared, Detail: "1 recipients (pre E)"},
		{Seq: 5, Time: 950, Proc: 0, Op: "send", Msg: "DataReply", BaseLine: 0, Peer: 4, MsgSeq: 1},
		{Seq: 6, Time: 2100, Proc: 4, Op: "handle", Msg: "DataReply", BaseLine: 0, Req: 4, MsgSeq: 1},
		{Seq: 7, Time: 2110, Proc: 4, Op: "install", BaseLine: 0, Kind: protocol.KindShared, MsgSeq: 1, Hops: 2},
		{Seq: 8, Time: 2200, Proc: 4, Op: "sync", BaseLine: -1, Kind: protocol.KindBarrier, ID: 1},
		{Seq: 9, Time: 2300, Proc: 5, Op: "miss", BaseLine: 8, Kind: protocol.KindWrite, Wr: 0x80, Declared: true},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	events := append(fakeEvents(),
		protocol.TraceEvent{Seq: 10, Time: 2300, Proc: 5, Op: "xmit", Msg: "ReadExclReq", BaseLine: 8,
			Req: 5, Queue: 40, Wire: 1400, Xfer: 137, Uplink: true},
		protocol.TraceEvent{Seq: 11, Time: 2400, Proc: 4, Op: "touch", BaseLine: 0, Detail: "quote \" and \u00e9"})
	var buf bytes.Buffer
	sink := obsv.NewJSONLWriterSink(&buf)
	for _, e := range events {
		sink.Event(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	h, got, err := obsv.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Schema != obsv.TraceSchema || h.Version != protocol.TraceSchemaVersion {
		t.Fatalf("bad header %+v", h)
	}
	if !reflect.DeepEqual(events, got) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", events, got)
	}
}

func TestReadTraceRejects(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"wrong schema":  `{"schema":"other","version":1}` + "\n",
		"newer version": `{"schema":"shasta-trace","version":99}` + "\n",
		"version 1":     `{"schema":"shasta-trace","version":1}` + "\n",
		"bad event":     `{"schema":"shasta-trace","version":2}` + "\nnot json\n",
		"unknown kind":  `{"schema":"shasta-trace","version":2}` + "\n" + `{"seq":1,"t":1,"p":0,"op":"sync","blk":-1,"kind":"lock-steal"}` + "\n",
		"unknown state": `{"schema":"shasta-trace","version":2}` + "\n" + `{"seq":1,"t":1,"p":0,"op":"privup","blk":0,"st":"Q"}` + "\n",
		"negative proc": `{"schema":"shasta-trace","version":2}` + "\n" + `{"seq":1,"t":1,"p":-1,"op":"miss","blk":0}` + "\n",
		"proc too big":  `{"schema":"shasta-trace","version":2}` + "\n" + `{"seq":1,"t":1,"p":256,"op":"miss","blk":0}` + "\n",
		"peer overflow": `{"schema":"shasta-trace","version":2}` + "\n" + `{"seq":1,"t":1,"p":0,"op":"send","blk":0,"peer":4294967296}` + "\n",
	}
	for name, in := range cases {
		if _, _, err := obsv.ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadTraceRejectsVersion1 pins the schema cut: a version-1 trace
// carried its facts as prose, which no analyzer parses any more, so the
// reader refuses it and tells the user what to do.
func TestReadTraceRejectsVersion1(t *testing.T) {
	in := `{"schema":"shasta-trace","version":1}` + "\n" +
		`{"seq":1,"t":13,"p":0,"op":"sync","blk":-1,"detail":"barrier gen=0"}` + "\n"
	_, _, err := obsv.ReadTrace(strings.NewReader(in))
	if err == nil {
		t.Fatal("version-1 trace accepted")
	}
	if !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "re-record") {
		t.Errorf("diagnostic should name the version and the remedy: %v", err)
	}
}

// TestJSONLSinkEventDoesNotAllocate pins the streaming encoder: once its
// line buffer has grown, writing an event through a sink allocates nothing.
func TestJSONLSinkEventDoesNotAllocate(t *testing.T) {
	sink := obsv.NewJSONLWriterSink(io.Discard)
	events := fakeEvents()
	allocs := testing.AllocsPerRun(100, func() {
		for _, e := range events {
			sink.Event(e)
		}
	})
	if allocs != 0 {
		t.Fatalf("sink allocates %.1f objects per %d events, want 0", allocs, len(events))
	}
}

func TestJSONLSinkRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	sink, err := obsv.NewJSONLSink(path, obsv.SinkOptions{MaxEventsPerFile: 4})
	if err != nil {
		t.Fatal(err)
	}
	events := fakeEvents()
	for _, e := range events {
		sink.Event(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	files := sink.Files()
	want := []string{path, filepath.Join(dir, "trace.1.jsonl"), filepath.Join(dir, "trace.2.jsonl")}
	if !reflect.DeepEqual(files, want) {
		t.Fatalf("segments %v, want %v", files, want)
	}
	// Each segment is independently valid; concatenated they give back the
	// full event sequence.
	var got []protocol.TraceEvent
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, seg, err := obsv.ReadTrace(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		got = append(got, seg...)
	}
	if !reflect.DeepEqual(events, got) {
		t.Fatalf("concatenated segments mismatch: %d events, want %d", len(got), len(events))
	}
}

func TestSinkErrorSticky(t *testing.T) {
	sink, err := obsv.NewJSONLSink(filepath.Join(t.TempDir(), "t.jsonl"), obsv.SinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	sink.Event(protocol.TraceEvent{}) // after Close: must not panic
	if sink.Err() == nil {
		t.Fatal("no sticky error after use-after-close")
	}
}

func TestFilter(t *testing.T) {
	events := fakeEvents()
	run := func(f *obsv.Filter) []protocol.TraceEvent {
		var out []protocol.TraceEvent
		f.Next = protocol.TracerFunc(func(e protocol.TraceEvent) { out = append(out, e) })
		for _, e := range events {
			f.Event(e)
		}
		return out
	}
	if got := run(&obsv.Filter{Procs: map[int]bool{0: true}}); len(got) != 3 {
		t.Fatalf("proc filter kept %d, want 3", len(got))
	}
	if got := run(&obsv.Filter{Ops: map[string]bool{"miss": true}}); len(got) != 2 {
		t.Fatalf("op filter kept %d, want 2", len(got))
	}
	// A block filter narrows the data traffic but must never silence the
	// synchronization backbone: BaseLine -1 events (sync, batch markers)
	// always pass Blocks ranges.
	got := run(&obsv.Filter{Blocks: []obsv.BlockRange{{Lo: 1, Hi: 8}}})
	if len(got) != 2 || got[0].BaseLine != -1 || got[0].Op != "sync" || got[1].BaseLine != 8 {
		t.Fatalf("block filter kept %v", got)
	}
	// Even a range that cannot contain -1 keeps them.
	if got := run(&obsv.Filter{Blocks: []obsv.BlockRange{{Lo: 100, Hi: 200}}}); len(got) != 1 || got[0].Op != "sync" {
		t.Fatalf("block filter dropped sync events: %v", got)
	}
	// Conjunction of predicates.
	got = run(&obsv.Filter{Procs: map[int]bool{4: true}, Ops: map[string]bool{"send": true}})
	if len(got) != 1 || got[0].Msg != "ReadReq" {
		t.Fatalf("conjunction kept %v", got)
	}
	// Sampling keeps events 1, 1+3, 1+6, ... of the matching stream.
	got = run(&obsv.Filter{Sample: 3})
	if len(got) != 3 || got[0].Seq != 1 || got[1].Seq != 4 || got[2].Seq != 7 {
		t.Fatalf("sampling kept %v", got)
	}
}

func TestSummarizeAndDiff(t *testing.T) {
	events := fakeEvents()
	s := obsv.Summarize(events)
	if s.Events != 9 || s.FirstSeq != 1 || s.LastSeq != 9 || s.Blocks != 2 {
		t.Fatalf("summary %+v", s)
	}
	if s.ByOp["miss"] != 2 || s.ByMsg["ReadReq"] != 2 || s.ByProc[4] != 5 {
		t.Fatalf("summary counts %+v", s)
	}
	if f1, f2 := s.Format(), obsv.Summarize(events).Format(); f1 != f2 {
		t.Fatal("Format not deterministic")
	}
	if d, equal := obsv.Diff(s, obsv.Summarize(events)); !equal || d != "" {
		t.Fatalf("self-diff not empty: %q", d)
	}
	d, equal := obsv.Diff(s, obsv.Summarize(events[:5]))
	if equal {
		t.Fatal("diff missed truncation")
	}
	if !strings.Contains(d, "events: 9 vs 5") {
		t.Fatalf("diff output %q", d)
	}
}

func TestTimeline(t *testing.T) {
	tl := obsv.Timeline(fakeEvents(), 0)
	lines := strings.Split(strings.TrimRight(tl, "\n"), "\n")
	if len(lines) != 7 {
		t.Fatalf("timeline has %d lines, want 7:\n%s", len(lines), tl)
	}
	for _, want := range []string{"miss", "ReadReq", "downgrade", "DataReply", "install"} {
		if !strings.Contains(tl, want) {
			t.Fatalf("timeline missing %q:\n%s", want, tl)
		}
	}
	if strings.Contains(tl, "barrier") {
		t.Fatal("timeline leaked non-block event")
	}
}

// traceRun executes a fixed small workload with a tracer attached and
// returns the cluster.
func traceRun(t *testing.T, tr shasta.Tracer) *shasta.Cluster {
	t.Helper()
	cluster := shasta.MustCluster(shasta.Config{Procs: 8, Clustering: 4})
	arr := cluster.Alloc(1024, 64)
	lock := cluster.AllocLock()
	cluster.SetTracer(tr)
	cluster.Run(func(p *shasta.Proc) {
		p.StoreF64(arr+shasta.Addr(p.ID()*8), float64(p.ID()))
		p.Barrier()
		p.LockAcquire(lock)
		p.StoreF64(arr+512, p.LoadF64(arr+512)+1) // contended block in the second page half
		p.LockRelease(lock)
		p.Barrier()
	})
	return cluster
}

func TestTraceAndSnapshotDeterminism(t *testing.T) {
	var trace [2]bytes.Buffer
	var metrics [2]bytes.Buffer
	for i := 0; i < 2; i++ {
		sink := obsv.NewJSONLWriterSink(&trace[i])
		cluster := traceRun(t, sink)
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cluster.Metrics().WriteJSON(&metrics[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(trace[0].Bytes(), trace[1].Bytes()) {
		t.Fatal("identical runs produced different traces")
	}
	if !bytes.Equal(metrics[0].Bytes(), metrics[1].Bytes()) {
		t.Fatalf("identical runs produced different metrics:\n%s\nvs\n%s",
			metrics[0].String(), metrics[1].String())
	}
	// Two identical runs also summarize byte-identically (the acceptance
	// property behind shastatrace diff).
	_, e0, err := obsv.ReadTrace(&trace[0])
	if err != nil {
		t.Fatal(err)
	}
	_, e1, err := obsv.ReadTrace(&trace[1])
	if err != nil {
		t.Fatal(err)
	}
	if obsv.Summarize(e0).Format() != obsv.Summarize(e1).Format() {
		t.Fatal("summaries differ")
	}
	if _, equal := obsv.Diff(obsv.Summarize(e0), obsv.Summarize(e1)); !equal {
		t.Fatal("diff of identical runs not empty")
	}
}

func TestSnapshotContents(t *testing.T) {
	cluster := traceRun(t, nil)
	m := cluster.Metrics()
	if m.Schema != obsv.MetricsSchema || m.Version != obsv.MetricsVersion {
		t.Fatalf("bad schema header %q v%d", m.Schema, m.Version)
	}
	if m.Config.Variant != "smp" || m.Config.Procs != 8 || m.Config.Clustering != 4 {
		t.Fatalf("bad config %+v", m.Config)
	}
	if m.Cycles <= 0 || m.Totals.TotalMisses == 0 || m.Totals.TotalMessages == 0 {
		t.Fatalf("empty totals: cycles=%d misses=%d msgs=%d",
			m.Cycles, m.Totals.TotalMisses, m.Totals.TotalMessages)
	}
	if m.Totals.HandlerEvents == 0 || m.Totals.HandlerCycles == 0 {
		t.Fatalf("handler occupancy not recorded: %+v", m.Totals)
	}
	if m.Totals.LockAcquires == 0 || m.Totals.LockHoldCycles == 0 {
		t.Fatalf("lock holds not recorded under SMP-Shasta: %+v", m.Totals)
	}
	if m.Network.RemoteSends == 0 || m.Network.RemoteBytes == 0 {
		t.Fatalf("network counters empty: %+v", m.Network)
	}
	if len(m.Network.LinkBusyCycles) != 2 || len(m.Network.PeakInboxDepth) != 8 {
		t.Fatalf("per-node/per-proc lengths wrong: %+v", m.Network)
	}
	peak := 0
	for _, d := range m.Network.PeakInboxDepth {
		if d > peak {
			peak = d
		}
	}
	if peak == 0 {
		t.Fatal("no inbox depth recorded")
	}
	if len(m.Procs) != 8 {
		t.Fatalf("%d proc entries, want 8", len(m.Procs))
	}
	var sum int64
	for _, p := range m.Procs {
		sum += p.HandlerCycles
	}
	if sum != m.Totals.HandlerCycles {
		t.Fatalf("per-proc handler cycles %d != total %d", sum, m.Totals.HandlerCycles)
	}
	// JSON round trip.
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := obsv.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatal("snapshot JSON round trip mismatch")
	}
}

func TestSnapshotDoesNotPerturbRun(t *testing.T) {
	// A fully observed run must report exactly the same virtual timing and
	// statistics as an unobserved one.
	var sinkBuf bytes.Buffer
	observed := traceRun(t, obsv.NewJSONLWriterSink(&sinkBuf))
	plain := traceRun(t, nil)
	if o, p := observed.Stats().Cycles, plain.Stats().Cycles; o != p {
		t.Fatalf("tracing perturbed the run: %d vs %d cycles", o, p)
	}
	if o, p := observed.Stats().TotalMessages(), plain.Stats().TotalMessages(); o != p {
		t.Fatalf("tracing perturbed message counts: %d vs %d", o, p)
	}
	// Pin the absolute numbers to the pre-profiler seed: the breakdown
	// capture, latency histograms and privup tracing must not move the
	// virtual clock or the protocol's message stream.
	const seedCycles, seedMessages = 59459, 86
	if c := observed.Stats().Cycles; c != seedCycles {
		t.Fatalf("cycles = %d, seed measured %d: profiling changed virtual timing", c, seedCycles)
	}
	if m := observed.Stats().TotalMessages(); m != seedMessages {
		t.Fatalf("messages = %d, seed measured %d: profiling changed the protocol", m, seedMessages)
	}
}

// FuzzReadTrace feeds arbitrary lines after a version-2 header to the
// reader: it must never panic, and whatever decodes must also run through
// the checker and the span, sync, race and causal analyzers without a
// panic. Typed processor fields (Peer, Req, Prev) may name processors no
// event comes from, or none at all; no analyzer may index by them.
func FuzzReadTrace(f *testing.F) {
	f.Add([]byte(`{"seq":1,"t":13,"p":0,"op":"sync","blk":-1,"kind":"barrier"}`))
	f.Add([]byte(`{"seq":1,"t":640,"p":4,"op":"send","msg":"ReadExclReq","blk":0,"peer":300}
{"seq":2,"t":640,"p":4,"op":"xmit","msg":"ReadExclReq","blk":0,"peer":-7,"req":99,"wire":1200,"xfer":137,"uplink":true}
{"seq":3,"t":2000,"p":0,"op":"handle","msg":"ReadExclReq","blk":0,"req":-2147483648}`))
	f.Add([]byte(`{"seq":1,"t":5,"p":1,"op":"miss","blk":3,"kind":"write","wr":16}
{"seq":2,"t":6,"p":2,"op":"touch","blk":3,"rd":18446744073709551615}
{"seq":3,"t":7,"p":1,"op":"send","msg":"LockRel","blk":-1,"peer":255,"id":-1}
{"seq":4,"t":9,"p":255,"op":"handle","msg":"LockRel","blk":-1,"req":1,"id":-1}`))
	f.Add([]byte(`{"seq":1,"t":1,"p":3,"op":"sync","blk":-1,"kind":"lock-acquire","id":2147483647}
{"seq":2,"t":0,"p":3,"op":"sync","blk":-1,"kind":"lock-acquired","id":2147483647,"prev":-9,"hops":3}
{"seq":3,"t":-4,"p":3,"op":"install","blk":-1,"kind":"upgrade","mseq":-1,"acks":-3}
{"seq":4,"t":9,"p":3,"op":"downgrade","blk":8,"st":"Pd"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		in := append([]byte(`{"schema":"shasta-trace","version":2}`+"\n"), body...)
		_, events, err := obsv.ReadTrace(bytes.NewReader(in))
		if err != nil {
			return
		}
		_ = obsv.CheckTrace(events).Report()
		_ = obsv.FormatSpans(obsv.BuildSpans(events), 3)
		ss := obsv.BuildSync(events)
		_ = obsv.FormatSync(ss, 3)
		_ = obsv.FormatSkew(ss)
		if rep, err := obsv.DetectRaces(events); err == nil {
			_ = rep.Format()
		}
		c := obsv.BuildCausal(events)
		_ = c.CriticalPath().Format(c)
	})
}
