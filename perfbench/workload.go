package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro"
	"repro/internal/apps"
	"repro/internal/obsv"
)

// workload is one fixed benchmark configuration. All three use SMP-Shasta
// (4-processor nodes, clustering 4) on the parallel scheduler, which is what
// `shastabench -parallel auto` selects on a multi-core host.
type workload struct {
	name string
	app  string
	cfg  shasta.Config
	// tol is the relative checksum tolerance against the sequential
	// reference; the internal/apps correctness tests use the same values.
	tol float64
	// wantCycles is the exact virtual time (Result.ParallelCycles) the
	// simulator produces for this configuration.
	wantCycles int64
	// observe attaches a JSONL trace sink to the run and analyzes the trace
	// afterwards.
	observe bool
}

// workloads are chosen for the layer each one stresses; README.md quotes
// the measured layer mix behind each choice.
var workloads = []workload{
	// The paper's headline configuration: protocol-handler bound, 3-hop
	// read misses dominate.
	{name: "lu16", app: "LU", tol: 1e-9, wantCycles: 46362606,
		cfg: shasta.Config{Procs: 16, Clustering: 4, Parallel: true}},
	// Scheduler (hand-off) bound and write-side: downgrades, lock
	// hand-offs and 16 conflict domains on the hierarchical interconnect,
	// configured as the scale experiment configures 64 processors.
	{name: "water64", app: "Water-Nsq", tol: 1e-6, wantCycles: 28879349,
		cfg: shasta.Config{Procs: 64, Clustering: 4, NodesPerGroup: 4, HeapBytes: 4 << 20, Parallel: true}},
	// The "why is it slow" path: trace writing during the run, then trace
	// decoding and the five offline analyzers.
	{name: "observe16", app: "Water-Nsq", tol: 1e-6, wantCycles: 22469753, observe: true,
		cfg: shasta.Config{Procs: 16, Clustering: 4, Parallel: true}},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) describe() string {
	topo := "flat network"
	if w.cfg.NodesPerGroup > 1 {
		topo = fmt.Sprintf("hierarchical 4x%d network", w.cfg.NodesPerGroup)
	}
	s := fmt.Sprintf("%s scale 1, %d procs, clustering %d, %s, parallel scheduler", w.app, w.cfg.Procs, w.cfg.Clustering, topo)
	if w.observe {
		s += ", JSONL trace + analyzers"
	}
	return s
}

// sequentialChecksum runs the application on one processor without the
// software protocol: the reference every iteration's checksum must match.
func sequentialChecksum(app string) (float64, error) {
	res, err := apps.Execute(apps.Registry[app](1), shasta.Config{Procs: 1, Hardware: true}, false)
	if err != nil {
		return 0, fmt.Errorf("sequential reference for %s: %w", app, err)
	}
	return res.Checksum, nil
}

// hooks instrument one iteration in the traced pass; the zero value runs it
// untraced.
type hooks struct {
	spans   *spanLog     // benchmark-side spans around each layer call
	profile io.Writer    // CPU profile of Cluster.Run
	emit    *timedTracer // wraps the trace sink to time every Event call
}

// sample is the measurement of one closed-loop iteration.
type sample struct {
	setup, run      float64   // host seconds
	analyze         []float64 // host seconds of each post-run analysis
	heapMB, allocMB float64
	cycles, msgs    int64
	scale           float64 // host speed factor measured before the iteration
	stats           *shasta.Stats
	metrics         *shasta.Metrics
	trace           analysis // observe workloads only
	err             error    // non-nil: the iteration failed
}

// total is the host time of the timed parts of the iteration.
func (s sample) total() float64 {
	t := s.setup + s.run
	for _, a := range s.analyze {
		t += a
	}
	return t
}

// setupOnly builds a cluster and sets the workload up without running it;
// extra setup repetitions make the setup_s median steadier.
func (w workload) setupOnly() float64 {
	runtime.GC()
	t0 := time.Now()
	c := shasta.MustCluster(w.cfg)
	apps.Registry[w.app](1).Setup(c, false)
	d := time.Since(t0).Seconds()
	runtime.KeepAlive(c)
	return d
}

// iterate runs the workload once on a fresh cluster and verifies it against
// the sequential reference checksum ref. A panic anywhere in the iteration
// is reported as its error.
func (w workload) iterate(ref float64, dir string, h hooks) (s sample) {
	defer func() {
		if r := recover(); r != nil {
			s.err = fmt.Errorf("panic: %v", r)
		}
	}()
	var sink *obsv.JSONLSink
	tracePath := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.jsonl", w.name, os.Getpid()))
	if w.observe {
		var err error
		if sink, err = obsv.NewJSONLSink(tracePath, obsv.SinkOptions{}); err != nil {
			s.err = err
			return s
		}
		defer os.Remove(tracePath)
	}
	runtime.GC()

	t0 := time.Now()
	c, err := shasta.NewCluster(w.cfg)
	if err != nil {
		s.err = err
		return s
	}
	wk := apps.Registry[w.app](1)
	wk.Setup(c, false)
	t1 := time.Now()
	s.setup = t1.Sub(t0).Seconds()
	h.spans.add("setup", "iteration", t0, t1)
	if sink != nil {
		if h.emit != nil {
			h.emit.next = sink
			c.SetTracer(h.emit)
		} else {
			c.SetTracer(sink)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if h.profile != nil {
		if err := pprof.StartCPUProfile(h.profile); err != nil {
			s.err = err
			return s
		}
		defer pprof.StopCPUProfile() // no-op unless Run panicked
	}
	t1 = time.Now()
	res := c.Run(wk.Body)
	var closeErr error
	if sink != nil {
		closeErr = sink.Close()
	}
	t2 := time.Now()
	if h.profile != nil {
		pprof.StopCPUProfile()
	}
	s.run = t2.Sub(t1).Seconds()
	h.spans.add("run", "iteration", t1, t2)
	if h.emit != nil {
		h.spans.addBusy("emit", "run", t1, t2, h.emit.n, h.emit.ns)
	}
	runtime.ReadMemStats(&after)
	s.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	runtime.GC()
	runtime.ReadMemStats(&after)
	s.heapMB = float64(after.HeapAlloc) / (1 << 20)

	s.cycles = res.ParallelCycles
	s.msgs = res.Stats.TotalMessages()
	s.stats = res.Stats
	switch {
	case closeErr != nil:
		s.err = fmt.Errorf("trace sink: %w", closeErr)
	case !apps.CloseEnough(ref, wk.Checksum(), w.tol):
		s.err = fmt.Errorf("checksum %.12g differs from sequential reference %.12g", wk.Checksum(), ref)
	case s.cycles != w.wantCycles:
		s.err = fmt.Errorf("virtual cycles %d, want %d", s.cycles, w.wantCycles)
	}

	// The post-run analysis: the trace analyzers where the run wrote a
	// trace, otherwise the counter snapshot in its JSON form. A snapshot
	// takes 0.05-0.2 s, so it is repeated to sample more of the run's
	// window than one short measurement would.
	if w.observe {
		t0 = time.Now()
		a, err := analyzeTrace(tracePath, h.spans)
		t1 = time.Now()
		s.trace = a
		if err != nil && s.err == nil {
			s.err = err
		}
		s.analyze = append(s.analyze, t1.Sub(t0).Seconds())
		h.spans.add("analyze", "iteration", t0, t1)
		s.metrics = c.Metrics()
		return s
	}
	for r := 0; r < snapshotReps; r++ {
		t0 = time.Now()
		s.metrics = c.Metrics()
		if err := s.metrics.WriteJSON(io.Discard); err != nil && s.err == nil {
			s.err = err
		}
		t1 = time.Now()
		s.analyze = append(s.analyze, t1.Sub(t0).Seconds())
		h.spans.add("analyze", "iteration", t0, t1)
	}
	return s
}

// analysis holds the trace size and the host time of each analysis step.
type analysis struct {
	events                                  int
	bytes                                   int64
	decode, check, spans, sync, races, crit float64
}

// analyzeTrace decodes the trace at path and runs the five offline
// analyzers over it. A clean run must give a trace with no checker
// violations, no dropped span or sync reconstructions and no races.
func analyzeTrace(path string, log *spanLog) (a analysis, err error) {
	f, err := os.Open(path)
	if err != nil {
		return a, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil {
		a.bytes = fi.Size()
	}
	step := func(name string, dst *float64, fn func() error) {
		if err != nil {
			return
		}
		t0 := time.Now()
		err = fn()
		t1 := time.Now()
		*dst = t1.Sub(t0).Seconds()
		log.add(name, "analyze", t0, t1)
	}
	var events []shasta.TraceEvent
	step("decode", &a.decode, func() error {
		var rerr error
		_, events, rerr = obsv.ReadTrace(f)
		a.events = len(events)
		return rerr
	})
	step("check", &a.check, func() error {
		if v := obsv.CheckTrace(events).Violations(); len(v) > 0 {
			return fmt.Errorf("trace checker: %d violations, first: %v", len(v), v[0])
		}
		return nil
	})
	step("spans", &a.spans, func() error {
		if ss := obsv.BuildSpans(events); ss.Gapped || ss.DroppedTotal() > 0 {
			return fmt.Errorf("spans: gapped %v, %d dropped", ss.Gapped, ss.DroppedTotal())
		}
		return nil
	})
	step("sync", &a.sync, func() error {
		if n := obsv.BuildSync(events).DroppedTotal(); n > 0 {
			return fmt.Errorf("sync: %d dropped", n)
		}
		return nil
	})
	step("races", &a.races, func() error {
		rr, rerr := obsv.DetectRaces(events)
		if rerr != nil {
			return rerr
		}
		if len(rr.Races) > 0 {
			return fmt.Errorf("races: %d reported in a race-free kernel", len(rr.Races))
		}
		return nil
	})
	step("critpath", &a.crit, func() error {
		if cp := obsv.BuildCausal(events).CriticalPath(); cp.Cycles <= 0 {
			return fmt.Errorf("critical path: %d cycles", cp.Cycles)
		}
		return nil
	})
	return a, err
}

// timedTracer forwards events to next and accumulates the host time each
// Event call takes. The simulator delivers events from one goroutine at a
// time, in seq order, so the counters need no synchronization.
type timedTracer struct {
	next  shasta.Tracer
	n, ns int64
}

func (t *timedTracer) Event(e shasta.TraceEvent) {
	t0 := time.Now()
	t.next.Event(e)
	t.ns += time.Since(t0).Nanoseconds()
	t.n++
}

// options are the command-line settings of one benchmark run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string
}

// setupReps is how many setup-only repetitions each run adds to the setup
// samples of its full iterations; snapshotReps is how many counter
// snapshots each iteration of a workload without a trace analyzes.
const (
	setupReps    = 48
	snapshotReps = 5
)

// runBenchmark computes the sequential reference, runs closed-loop
// iterations for o.seconds of host time, and, with o.trace, the traced pass.
// It prints a human-readable table to out and returns the result line.
func runBenchmark(w workload, o options, out io.Writer) (result, error) {
	ref, err := sequentialChecksum(w.app)
	if err != nil {
		return result{}, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	cal, err := newCalibrator()
	if err != nil {
		return result{}, err
	}
	defer cal.close()

	var samples []sample
	var setups timings
	extra := setupReps
	start := time.Now()
	// Start another iteration only while it is expected to end within the
	// budget, so a run measures about o.seconds whatever the iteration time.
	for len(samples) == 0 || time.Since(start).Seconds()+samples[len(samples)-1].total() <= o.seconds {
		f := cal.scale()
		for k := rng.Intn(5); k > 0 && extra > 0; k-- {
			setups.add(f, w.setupOnly())
			extra--
		}
		s := w.iterate(ref, o.workdir, hooks{})
		s.scale = f
		s.stats, s.metrics = nil, nil // keep only the figures: the stats pin the cluster
		samples = append(samples, s)
	}
	if extra > 0 {
		f := cal.scale()
		for ; extra > 0; extra-- {
			setups.add(f, w.setupOnly())
		}
	}

	res := result{Attempted: len(samples), Metrics: map[string]metric{}}
	var run, analyze timings
	var speed, heap, alloc, cycles, msgs []float64
	for i, s := range samples {
		if s.err != nil {
			res.Failed++
			fmt.Fprintf(out, "iteration %d FAILED: %v\n", i, s.err)
		}
		if s.run == 0 {
			continue // panicked before the run finished
		}
		setups.add(s.scale, s.setup)
		run.add(s.scale, s.run)
		analyze.add(s.scale, s.analyze...)
		speed = append(speed, s.scale)
		heap = append(heap, s.heapMB)
		alloc = append(alloc, s.allocMB)
		cycles = append(cycles, float64(s.cycles))
		msgs = append(msgs, float64(s.msgs))
	}
	if len(run.raw) == 0 {
		return result{}, fmt.Errorf("%s: every iteration failed", w.name)
	}
	e2e := []row{
		{"setup_s", "s", setups.scaled},
		{"run_s", "s", run.scaled},
		{"analyze_s", "s", analyze.scaled},
		{"heap_mb", "MB", heap},
		{"alloc_mb", "MB", alloc},
		{"virtual_cycles", "cycles", cycles},
		{"virtual_msgs", "count", msgs},
	}
	fmt.Fprintf(out, "\nend-to-end (%d iterations in %.1f s; failed %d)\n", len(samples), time.Since(start).Seconds(), res.Failed)
	printRows(out, e2e)
	passShare := float64(res.Attempted-res.Failed) / float64(res.Attempted)
	fmt.Fprintf(out, "  %-26s %14.4f %-6s (fail_share %.4f)\n", "pass_share", passShare, "share", 1-passShare)
	fmt.Fprintf(out, "\nhost timings as measured, before scaling to the reference speed (median host speed %.4f)\n", median(speed))
	printRows(out, []row{{"setup_s", "s", setups.raw}, {"run_s", "s", run.raw}, {"analyze_s", "s", analyze.raw}})

	if !o.trace {
		for _, r := range e2e {
			res.Metrics[r.name] = metric{median(r.xs), r.unit}
		}
		res.Metrics["pass_share"] = metric{passShare, "share"}
		res.Correct = res.Failed == 0
		return res, nil
	}

	layers, attempted, failed, err := tracedPass(w, ref, median(run.scaled), cal, o, rng, out)
	if err != nil {
		return result{}, err
	}
	layers["bench.host_speed"] = metric{median(speed), "ratio"}
	res.Attempted += attempted
	res.Failed += failed
	res.Metrics = layers
	res.Correct = res.Failed == 0
	return res, nil
}

// timings holds the samples of one host timing as measured and scaled to
// the reference host speed.
type timings struct{ raw, scaled []float64 }

// add appends samples measured at host speed factor f.
func (t *timings) add(f float64, xs ...float64) {
	for _, x := range xs {
		t.raw = append(t.raw, x)
		t.scaled = append(t.scaled, x*f)
	}
}

// row is one metric's samples for the human-readable table.
type row struct {
	name, unit string
	xs         []float64
}

// printRows prints each row's median, quartiles, sample count and tail: the
// highest percentile with at least ten samples above it, or "-" for fewer
// than 20 samples.
func printRows(out io.Writer, rows []row) {
	fmt.Fprintf(out, "  %-26s %14s %14s %14s %4s %20s %s\n", "metric", "median", "q1", "q3", "n", "tail", "unit")
	for _, r := range rows {
		tail := "-"
		if n := len(r.xs); n >= 20 {
			q := 1 - 10/float64(n)
			tail = fmt.Sprintf("%.6g (p%.0f)", quantile(r.xs, q), 100*math.Floor(100*q)/100)
		}
		fmt.Fprintf(out, "  %-26s %14.6g %14.6g %14.6g %4d %20s %s\n",
			r.name, median(r.xs), quantile(r.xs, 0.25), quantile(r.xs, 0.75), len(r.xs), tail, r.unit)
	}
}
