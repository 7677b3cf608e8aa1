package protocol

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/memory"
	"repro/internal/stats"
)

// Addr8 offsets an address by i 8-byte words.
func Addr8(i int) memory.Addr { return memory.Addr(i * 8) }

func TestCollectorTracer(t *testing.T) {
	s := testSystem(8, 4)
	a := s.AllocPlaced(64, 64, 0)
	col := &CollectorTracer{}
	s.SetTracer(col)
	s.Run(func(p *Proc) {
		p.Barrier()
		if p.ID() == 4 {
			_ = p.LoadF64(a) // one remote read miss
		}
		p.Barrier()
	})
	var sawMiss, sawReq, sawReply bool
	for _, e := range col.Events {
		switch {
		case e.Op == "miss":
			sawMiss = true
		case e.Op == "send" && e.Msg == "ReadReq":
			sawReq = true
		case e.Op == "handle" && e.Msg == "DataReply":
			sawReply = true
		}
	}
	if !sawMiss || !sawReq || !sawReply {
		t.Fatalf("trace incomplete: miss=%v req=%v reply=%v (%d events)",
			sawMiss, sawReq, sawReply, len(col.Events))
	}
	// Events are time-ordered per processor.
	last := map[int]int64{}
	for _, e := range col.Events {
		if e.Time < last[e.Proc] {
			t.Fatalf("events out of order for proc %d", e.Proc)
		}
		last[e.Proc] = e.Time
	}
}

func TestCollectorTracerLimit(t *testing.T) {
	s := testSystem(4, 4)
	a := s.Alloc(1024, 64)
	col := &CollectorTracer{Limit: 5}
	s.SetTracer(col)
	s.Run(func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.StoreU64(a+Addr8(i), uint64(i))
		}
		p.Barrier()
	})
	if len(col.Events) > 5 {
		t.Fatalf("limit ignored: %d events", len(col.Events))
	}
}

func TestTraceSeqStrictlyIncreasing(t *testing.T) {
	s := testSystem(8, 4)
	a := s.Alloc(1024, 64)
	col := &CollectorTracer{}
	s.SetTracer(col)
	s.Run(func(p *Proc) {
		for i := 0; i < 8; i++ {
			p.StoreU64(a+Addr8(i*4), uint64(p.ID()))
		}
		p.Barrier()
	})
	if len(col.Events) == 0 {
		t.Fatal("no events")
	}
	// Seq is a global total order: strictly increasing across the whole
	// run, starting at 1, with no gaps at the emission point.
	for i, e := range col.Events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	ops := map[string]bool{}
	for _, op := range TraceOps {
		ops[op] = true
	}
	for _, e := range col.Events {
		if !ops[e.Op] {
			t.Fatalf("event op %q not in TraceOps", e.Op)
		}
	}
}

func TestWriterTracerFilters(t *testing.T) {
	s := testSystem(8, 4)
	a := s.AllocPlaced(64, 64, 0) // block 0
	b := s.AllocPlaced(64, 64, 4) // separate page/block
	var buf bytes.Buffer
	s.SetTracer(&WriterTracer{W: &buf, Blocks: map[int]bool{0: true}})
	s.Run(func(p *Proc) {
		p.Barrier()
		if p.ID() == 4 {
			_ = p.LoadF64(a)
			_ = p.LoadF64(b)
		}
		p.Barrier()
	})
	out := buf.String()
	if !strings.Contains(out, "blk0") {
		t.Fatal("filtered trace missing block 0 events")
	}
	if strings.Contains(out, "ReadReq") && strings.Contains(out, "blk64") {
		t.Fatal("filter leaked other blocks")
	}
}

// TestUntracedPathsDoNotFormat pins that with no tracer attached the
// protocol builds no trace event and formats no detail. Each traced path
// below is run repeatedly and must allocate exactly its protocol state —
// miss entries, messages (each boxed twice more by the simulator's inbox
// heap), reply data, directory and lock-manager state, the lock stall's
// label — as an allocation profile of the test shows. Lock ids and barrier
// generations are above 255, so boxing them for a formatter would add an
// allocation per traced step. The paths:
//
//	handle      a handled downgrade (kept from finishing, so it repeats)
//	miss        a registered miss entry
//	read miss   p4 misses on a fresh block homed on node 0: send, xmit,
//	            handle and install events at both ends
//	batch miss  the same fetch through the batch miss handler, adding the
//	            batch and touch events
//	lock        acquire and release of a lock homed on node 0: sync events
//	            and LockReq/LockGrant/LockRel sends and handles
//	barrier     one barrier across all eight processors: sync events and
//	            BarArrive/BarGo sends and handles
func TestUntracedPathsDoNotFormat(t *testing.T) {
	const runs = 100
	s := testSystem(8, 4)
	a := s.AllocPlaced(64, 64, 0)
	fresh := s.AllocPlaced(64*(2*runs+4), 64, 0)
	got := map[string]float64{}
	s.Run(func(p *Proc) {
		if p.ID() == 0 {
			base := s.lay.LineOf(a)
			p.grp.downgrades[base] = &dgEntry{baseLine: base, remaining: 1 << 30}
			m := &pmsg{kind: mDowngradeToShared, baseLine: base, requester: 1, seq: 300}
			got["handle"] = testing.AllocsPerRun(runs, func() { p.handle(m) })
			delete(p.grp.downgrades, base)
			got["miss"] = testing.AllocsPerRun(runs, func() {
				p.newMissEntry(base, stats.ReadMiss, 0x1ff, 0, false)
				delete(p.grp.miss, base)
			})
		}
		p.Barrier()
		if p.ID() == 4 {
			next := fresh
			block := func() memory.Addr { next += 64; return next }
			got["read miss"] = testing.AllocsPerRun(runs, func() { _ = p.LoadF64(block()) })
			got["batch miss"] = testing.AllocsPerRun(runs, func() {
				x := block()
				p.Batch([]BatchRef{{Base: x, Bytes: 8}}, func(b *Batch) { _ = b.LoadF64(x) })
			})
			got["lock"] = testing.AllocsPerRun(runs, func() {
				p.LockAcquire(258)
				p.LockRelease(258)
			})
		}
		// Past generation 255, so a boxed generation would allocate.
		for i := 0; i < 256; i++ {
			p.Barrier()
		}
		n := testing.AllocsPerRun(runs, p.Barrier)
		if p.ID() == 0 {
			got["barrier"] = n
		}
	})
	want := map[string]float64{"handle": 0, "miss": 1, "read miss": 10, "batch miss": 13, "lock": 12, "barrier": 45}
	for op, n := range want {
		if got[op] != n {
			t.Errorf("untraced %s allocates %.0f objects, want %.0f", op, got[op], n)
		}
	}
}
