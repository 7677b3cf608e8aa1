package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/stats"
)

// modules are the internal/ packages a CPU sample can be attributed to;
// every other sample (the standard library, the Go runtime, the root
// package's thin wrappers and the benchmark itself) counts as "runtime".
var modules = []string{"apps", "checks", "memchan", "memory", "obsv", "protocol", "sim", "stats", "runtime"}

// tracedPass produces the per-layer ledger. It runs apart from the timed
// iterations: one profiled, span-recorded iteration of the workload, a
// traced observe16 iteration where the workload writes no trace itself, and
// the warmed layer probes, in an order shuffled by rng. runS is the
// untraced median run_s, the base of the host-per-event ratios and of
// the pass's own overhead. It returns the metrics and the number of checked
// steps attempted and failed.
func tracedPass(w workload, ref, runS float64, cal *calibrator, o options, rng *rand.Rand, out io.Writer) (map[string]metric, int, int, error) {
	m := map[string]metric{}
	log := newSpanLog()
	attempted, failed := 0, 0
	check := func(what string, err error) {
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(out, "%s FAILED: %v\n", what, err)
		}
	}
	setObsv := func(emit *timedTracer, a analysis) {
		if emit.n > 0 {
			m["obsv.emit_ns"] = metric{float64(emit.ns) / float64(emit.n), "ns"}
		}
		m["obsv.trace_events"] = metric{float64(a.events), "count"}
		m["obsv.trace_mb"] = metric{float64(a.bytes) / (1 << 20), "MB"}
		m["obsv.decode_s"] = metric{a.decode, "s"}
		m["obsv.check_s"] = metric{a.check, "s"}
		m["obsv.spans_s"] = metric{a.spans, "s"}
		m["obsv.sync_s"] = metric{a.sync, "s"}
		m["obsv.races_s"] = metric{a.races, "s"}
		m["obsv.critpath_s"] = metric{a.crit, "s"}
	}

	var profileErr error
	steps := []func(){
		func() {
			var prof bytes.Buffer
			emit := &timedTracer{}
			h := hooks{spans: log, profile: &prof}
			if w.observe {
				h.emit = emit
			}
			f := cal.scale()
			s := w.iterate(ref, o.workdir, h)
			check("traced iteration", s.err)
			if s.err != nil && s.run == 0 {
				return
			}
			m["bench.traced_run_ratio"] = metric{s.run * f / runS, "ratio"}
			recordCounts(m, s, runS)
			if w.observe {
				setObsv(emit, s.trace)
			}
			shares, err := attribute(prof.Bytes())
			if err != nil {
				profileErr = err
				return
			}
			for _, mod := range modules {
				m[mod+".cpu_share"] = metric{shares.share(mod), "share"}
			}
			m["protocol.fmt_share"] = metric{float64(shares.fmtUnderProtocol) / float64(shares.total), "share"}
			m["runtime.gc_share"] = metric{float64(shares.gc) / float64(shares.total), "share"}
			fmt.Fprintf(out, "\nCPU profile of one Run (%d samples), innermost repro/internal module:\n", shares.total)
			for _, mod := range modules {
				fmt.Fprintf(out, "  %-10s %6.1f%%\n", mod, 100*shares.share(mod))
			}
			fmt.Fprintf(out, "  %-10s %6.1f%%\n", "sum", 100*shares.sum())
		},
		func() {
			d, err := probeSwitch()
			check("sim switch probe", err)
			m["sim.switch_ns"] = metric{d, "ns"}
		},
		func() {
			load, store, batch, err := probeHits()
			check("protocol hit probe", err)
			m["protocol.load_hit_ns"] = metric{load, "ns"}
			m["protocol.store_hit_ns"] = metric{store, "ns"}
			m["protocol.batch_ref_ns"] = metric{batch, "ns"}
		},
		func() {
			miss2, miss3, err := probeMisses()
			check("protocol miss probe", err)
			m["protocol.miss2_ns"] = metric{miss2, "ns"}
			m["protocol.miss3_ns"] = metric{miss3, "ns"}
		},
	}
	if !w.observe {
		// The trace layer is not on this workload's path; measure it on
		// one traced observe16 iteration so every workload reports it.
		steps = append(steps, func() {
			ow, _ := lookupWorkload("observe16")
			oref, err := sequentialChecksum(ow.app)
			if err != nil {
				check("observe16 reference", err)
				return
			}
			emit := &timedTracer{}
			s := ow.iterate(oref, o.workdir, hooks{emit: emit})
			check("observe16 trace probe", s.err)
			setObsv(emit, s.trace)
		})
	}
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	for _, step := range steps {
		step()
	}
	if profileErr != nil {
		return nil, 0, 0, fmt.Errorf("cpu profile: %w", profileErr)
	}

	spanPath := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
	if err := log.write(spanPath); err != nil {
		return nil, 0, 0, err
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "\nper-layer (spans in %s)\n", spanPath)
	for _, k := range names {
		fmt.Fprintf(out, "  %-26s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return m, attempted, failed, nil
}

// recordCounts adds the traced run's protocol and interconnect counters and
// the host cost per simulated message and per inline check.
func recordCounts(m map[string]metric, s sample, runS float64) {
	st, snap := s.stats, s.metrics
	m["protocol.read_misses"] = metric{float64(st.MissesBy(stats.ReadMiss, 2) + st.MissesBy(stats.ReadMiss, 3)), "count"}
	var writes, threeHop int64
	for k := stats.MissKind(0); k < stats.NumMissKinds; k++ {
		if k != stats.ReadMiss {
			writes += st.MissesBy(k, 2) + st.MissesBy(k, 3)
		}
		threeHop += st.MissesBy(k, 3)
	}
	m["protocol.write_misses"] = metric{float64(writes), "count"}
	m["protocol.misses_3hop"] = metric{float64(threeHop), "count"}
	m["protocol.downgrade_msgs"] = metric{float64(st.MessagesBy(stats.DowngradeMsg)), "count"}
	var locks int64
	ids, totals := st.SyncTotals()
	for i, id := range ids {
		if id.Kind == stats.SyncLock {
			locks += totals[i].Acquires
		}
	}
	m["protocol.lock_acquires"] = metric{float64(locks), "count"}
	m["protocol.host_ns_per_msg"] = metric{runS * 1e9 / float64(s.msgs), "ns"}
	m["protocol.host_ns_per_check"] = metric{runS * 1e9 / float64(snap.Totals.Checks), "ns"}
	m["memchan.link_wait_cycles"] = metric{float64(snap.Network.LinkWaitCycles), "cycles"}
	m["memchan.remote_bytes"] = metric{float64(snap.Network.RemoteBytes), "bytes"}
}

// spanLog keeps benchmark-side spans in memory until the run ends. A nil
// log records nothing, so untraced iterations pay no cost.
type spanLog struct {
	origin time.Time
	spans  []spanRec
}

// spanRec is one span: a call from the benchmark into a layer. Aggregated
// spans (the per-event trace emission) carry the call count and the summed
// host time of the calls in busy_ns.
type spanRec struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Count   int64  `json:"count,omitempty"`
	BusyNS  int64  `json:"busy_ns,omitempty"`
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(name, parent string, start, end time.Time) {
	l.addBusy(name, parent, start, end, 0, 0)
}

func (l *spanLog) addBusy(name, parent string, start, end time.Time, count, busyNS int64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, spanRec{Name: name, Parent: parent,
		StartNS: start.Sub(l.origin).Nanoseconds(), EndNS: end.Sub(l.origin).Nanoseconds(),
		Count: count, BusyNS: busyNS})
}

func (l *spanLog) write(path string) error {
	b, err := json.MarshalIndent(l.spans, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
