package sim

// Tests for the coroutine hand-off: failure diagnostics from parallel
// windows, engine reuse after a failed run, and the cost of one switch.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/stats"
)

// panicInWindow is a named frame for the panic diagnostic to show.
//
//go:noinline
func panicInWindow(p *Proc) {
	panic(fmt.Sprintf("window boom on proc %d", p.ID))
}

// TestParallelWindowPanicDiagnostic checks that a body panic raised while
// two conflict domains run in the same parallel window surfaces as a
// diagnostic carrying the panic value, the engine dump and the original
// stack down to the panicking function.
func TestParallelWindowPanicDiagnostic(t *testing.T) {
	e := NewEngine(4)
	e.Parallel = true
	e.Lookahead = 50
	e.SetDomains(pairDomains(4))
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		e.Run(func(p *Proc) {
			for step := 0; step < 20; step++ {
				p.Advance(stats.Task, 7)
				if p.ID == 2 && step == 5 {
					panicInWindow(p)
				}
			}
		})
	}()
	if e.WindowsRun() == 0 {
		t.Fatal("run never entered the parallel scheduler")
	}
	for _, want := range []string{
		"sim: processor 2 panicked: window boom on proc 2",
		"proc  0:",
		"original stack:",
		"sim.panicInWindow",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic does not contain %q:\n%s", want, msg)
		}
	}
}

// TestRunAfterFailedRun checks that an engine whose Run failed — by
// deadlock or by a body panic, after leaving messages, emissions and
// fences pending — runs the next program exactly like a fresh engine:
// same finish time, statistics, receive logs, emissions and fences.
func TestRunAfterFailedRun(t *testing.T) {
	const procs = 4
	const lookahead = 50
	rerun := false
	dirty := func(p *Proc) {
		p.Send((p.ID+2)%procs, lookahead+5, "stale")
		p.Emit("stale")
		p.Fence(func(int, *stats.Proc) {
			if rerun {
				t.Error("a fence of the failed run resolved in the next run")
			}
		})
		p.Advance(stats.Task, int64(10*(p.ID+1)))
	}
	failures := map[string]func(*Proc){
		"deadlock": func(p *Proc) {
			dirty(p)
			for {
				p.WaitRecv(stats.Read, "never")
			}
		},
		"panic": func(p *Proc) {
			dirty(p)
			if p.ID == 1 {
				panic("boom")
			}
			p.WaitRecv(stats.Read, "never")
			p.WaitRecv(stats.Read, "never")
		},
	}
	for _, parallel := range []bool{false, true} {
		for name, fail := range failures {
			label := fmt.Sprintf("parallel=%v after %s", parallel, name)
			engine := func() *Engine {
				e := NewEngine(procs)
				e.Parallel = parallel
				e.Lookahead = lookahead
				e.SetDomains(pairDomains(procs))
				return e
			}
			want := runRandomProgram(engine(), 11, lookahead)
			e := engine()
			e.SetEmitFunc(func(int64, int, any) {})
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: failing run did not panic", label)
					}
				}()
				e.Run(fail)
			}()
			rerun = true
			compareRuns(t, label, want, runRandomProgram(e, 11, lookahead))
			rerun = false
		}
	}
}

// BenchmarkYield measures one processor-to-processor hand-off: two
// processors ping-pong, each stepping its clock past the other's and
// calling Yield, so every Yield suspends one coroutine and resumes the
// other. The parallel case runs both processors in one conflict domain (a
// third, idle processor forms the second domain that turns the window
// scheduler on), so the hand-offs go through runDomain.
func BenchmarkYield(b *testing.B) {
	pingPong := func(b *testing.B, e *Engine) {
		e.Run(func(p *Proc) {
			if p.ID > 1 {
				return
			}
			for i := 0; i < b.N; i++ {
				p.now++
				p.Yield()
			}
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/switch")
	}
	b.Run("serial", func(b *testing.B) {
		pingPong(b, NewEngine(2))
	})
	b.Run("parallel", func(b *testing.B) {
		e := NewEngine(3)
		e.Parallel = true
		e.Lookahead = 1 << 20
		e.SetDomains([]int{0, 0, 1})
		pingPong(b, e)
		if e.WindowsRun() == 0 {
			b.Fatal("run never entered the parallel scheduler")
		}
	})
}
