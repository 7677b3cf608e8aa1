package protocol

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/memory"
)

// TraceSchemaVersion is the version of the trace-event schema: the set of
// TraceEvent fields, the Op and Kind vocabularies, and the message-kind
// names used in Msg. It is carried in the header of serialized traces (see
// internal/obsv) and must be bumped whenever a field is renamed or removed,
// an Op or Kind is renamed, or the meaning of an existing field changes.
// Adding a new Op, Kind or message kind is a compatible extension and does
// not require a bump. Version 2 made every fact an analysis reads a typed
// field; version 1 carried them as prose in Detail. The contract is
// documented field by field, with the fields each Op sets, in
// OBSERVABILITY.md §1.
const TraceSchemaVersion = 2

// TraceOps lists the event kinds a Tracer can receive, in no particular
// order. The vocabulary is part of the versioned trace schema; see
// OBSERVABILITY.md §1 for when each is emitted.
var TraceOps = []string{
	"send", "handle", "miss", "downgrade", "install", "invalidate",
	"sync", "batch", "privup", "touch", "xmit", "migrate", "migfwd",
}

// TraceKind is an event's sub-kind: the miss kind of a miss event, the
// grant of an install, the step of a sync event, or the side of a migrate
// event. The zero value means the event has none.
type TraceKind uint8

// Trace kinds. The miss kinds follow stats.MissKind's order, and
// KindUpgrade is both a miss kind and an install grant.
const (
	KindNone TraceKind = iota
	KindRead
	KindWrite
	KindUpgrade
	KindShared
	KindExclusive
	KindLockAcquire
	KindLockAcquired
	KindLockRelease
	KindBarrier
	KindBarrierDepart
	KindHandoff
	KindInstalled
)

var traceKindNames = [...]string{"", "read", "write", "upgrade", "shared", "exclusive",
	"lock-acquire", "lock-acquired", "lock-release", "barrier", "barrier-depart",
	"handoff", "installed"}

// String returns the kind's schema name ("" for KindNone).
func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// ParseTraceKind returns the kind with the given schema name.
func ParseTraceKind(s string) (TraceKind, bool) {
	for k, name := range traceKindNames {
		if name == s {
			return TraceKind(k), true
		}
	}
	return 0, false
}

// TraceEvent is one protocol-level event, emitted to a Tracer attached to
// the System. Tracing is intended for debugging coherence behaviour, for
// the observability pipeline (see internal/obsv and cmd/shastatrace), and
// for teaching: a filtered trace of a single block reads like the protocol
// walkthroughs in the paper (request, forward, downgrade messages, reply).
// The fields after Detail are the event's typed protocol facts; each Op
// sets the ones OBSERVABILITY.md §1 lists and leaves the rest zero.
type TraceEvent struct {
	// Seq is a global, strictly increasing sequence number assigned at
	// emission. The simulator is cooperatively scheduled, so Seq gives a
	// deterministic total order over all events of a run, including
	// same-cycle events on different processors.
	Seq uint64
	// Time is the emitting processor's virtual clock in cycles.
	Time int64
	// Proc is the emitting processor.
	Proc int
	// Op names the event; see TraceOps.
	Op string
	// Msg is the protocol message kind of a send, handle, xmit or migfwd
	// event, empty otherwise.
	Msg string
	// BaseLine identifies the block, -1 for non-block events.
	BaseLine int
	// Detail is human context that no analysis reads, such as a handle's
	// local block state. It never repeats a typed fact.
	Detail string

	MsgSeq            int64        // directory sequence number a message carries or an install installs
	Rd, Wr            uint64       // slots read and written (stats.SlotMask) by a miss or a batch (touch)
	Queue, Wire, Xfer int64        // an xmit's link queueing, first-byte latency and serialization
	Peer              int32        // a message's destination; a migration's target or source
	Req               int32        // the processor a message travels for
	Acks              int32        // invalidation acks a message or grant makes the requester expect
	Hops              int32        // 2 for a reply from the home, 3 via a third processor; a lock grant's hops
	ID                int32        // a lock id, or a barrier generation
	Prev              int32        // a granted lock's previous holder, -1 for its first grant
	Kind              TraceKind    // the event's sub-kind
	State             memory.State // a downgrade's or privup's target state
	Declared          bool         // a batch miss: its masks are declared ranges, not accesses
	Local, Uplink     bool         // an xmit's route, as in memchan.SendInfo (neither: remote)
}

// Arrive is the absolute cycle an xmit's message reaches its destination's
// inbox: the transit components telescope from the event's Time.
func (e TraceEvent) Arrive() int64 { return e.Time + e.Queue + e.Wire + e.Xfer }

// Describe renders the event's typed facts and Detail as the human-readable
// phrase String ends with, such as "to p0 seq=3 acks=0" for a send.
func (e TraceEvent) Describe() string {
	// LockReq, LockGrant, LockRel, BarArrive and BarGo name their primitive.
	syncMsg := strings.HasPrefix(e.Msg, "Lock") || strings.HasPrefix(e.Msg, "Bar")
	switch e.Op {
	case "send":
		if syncMsg {
			return fmt.Sprintf("to p%d seq=%d acks=%d id=%d", e.Peer, e.MsgSeq, e.Acks, e.ID)
		}
		return fmt.Sprintf("to p%d seq=%d acks=%d", e.Peer, e.MsgSeq, e.Acks)
	case "handle":
		if syncMsg {
			return fmt.Sprintf("from R%d seq=%d: id=%d", e.Req, e.MsgSeq, e.ID)
		}
		return fmt.Sprintf("from R%d seq=%d: %s", e.Req, e.MsgSeq, e.Detail)
	case "xmit":
		via := "remote"
		if e.Local {
			via = "local"
		} else if e.Uplink {
			via = "uplink"
		}
		return fmt.Sprintf("to p%d R%d arrive=%d queue=%d wire=%d xfer=%d via=%s",
			e.Peer, e.Req, e.Arrive(), e.Queue, e.Wire, e.Xfer, via)
	case "miss":
		declared := ""
		if e.Declared {
			declared = "declared "
		}
		return fmt.Sprintf("%v issued %sr=%x w=%x: %s", e.Kind, declared, e.Rd, e.Wr, e.Detail)
	case "install":
		switch e.Kind {
		case KindShared:
			return fmt.Sprintf("shared seq=%d hops=%d", e.MsgSeq, e.Hops)
		case KindUpgrade:
			return fmt.Sprintf("upgrade seq=%d acks=%d", e.MsgSeq, e.Acks)
		}
		return fmt.Sprintf("%v seq=%d hops=%d acks=%d", e.Kind, e.MsgSeq, e.Hops, e.Acks)
	case "downgrade":
		return fmt.Sprintf("to %v, %s", e.State, e.Detail)
	case "privup":
		return fmt.Sprintf("to %v", e.State)
	case "touch":
		return fmt.Sprintf("r=%x w=%x", e.Rd, e.Wr)
	case "sync":
		switch e.Kind {
		case KindLockAcquired:
			return fmt.Sprintf("lock-acquired id=%d prev=%d hops=%d", e.ID, e.Prev, e.Hops)
		case KindBarrier, KindBarrierDepart:
			return fmt.Sprintf("%v gen=%d", e.Kind, e.ID)
		}
		return fmt.Sprintf("%v id=%d", e.Kind, e.ID)
	case "migrate":
		if e.Kind == KindInstalled {
			return fmt.Sprintf("installed from p%d %s", e.Peer, e.Detail)
		}
		return fmt.Sprintf("to p%d %s", e.Peer, e.Detail)
	case "migfwd":
		return fmt.Sprintf("to p%d R%d", e.Peer, e.Req)
	}
	return e.Detail
}

// String renders the event as one line.
func (e TraceEvent) String() string {
	msg := e.Msg
	if msg == "" {
		msg = "-"
	}
	return fmt.Sprintf("@%-10d p%-2d %-10s %-18s blk%-5d %s",
		e.Time, e.Proc, e.Op, msg, e.BaseLine, e.Describe())
}

// Tracer receives protocol events. Implementations must be fast; they run
// inline with the simulation.
type Tracer interface {
	Event(TraceEvent)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(TraceEvent)

// Event implements Tracer.
func (f TracerFunc) Event(e TraceEvent) { f(e) }

// WriterTracer streams formatted events to w, optionally filtered to a set
// of block base lines.
type WriterTracer struct {
	W io.Writer
	// Blocks filters events to these base lines; empty means all.
	Blocks map[int]bool
}

// Event implements Tracer.
func (t *WriterTracer) Event(e TraceEvent) {
	if len(t.Blocks) > 0 && !t.Blocks[e.BaseLine] {
		return
	}
	fmt.Fprintln(t.W, e.String())
}

// CollectorTracer appends events to memory for programmatic inspection.
type CollectorTracer struct {
	Events []TraceEvent
	// Limit caps collection; 0 means unlimited.
	Limit int
}

// Event implements Tracer.
func (t *CollectorTracer) Event(e TraceEvent) {
	if t.Limit > 0 && len(t.Events) >= t.Limit {
		return
	}
	t.Events = append(t.Events, e)
}

// SetTracer attaches a tracer to the system (nil detaches). Call before
// Run.
func (s *System) SetTracer(tr Tracer) { s.tracer = tr }

// trace emits an event if a tracer is attached, stamping it with the
// processor's clock and id. The event is buffered in the simulator and
// delivered to the tracer — with its Seq assigned — on the scheduler's
// control thread once the virtual-time floor passes it, in deterministic
// (Time, Proc, program order) order; see emitTrace. The tracer therefore
// observes an identical event sequence under the serial and parallel
// schedulers. Callers build any Detail only when a tracer is attached.
func (p *Proc) trace(e *TraceEvent) {
	if p.sys.tracer == nil {
		return
	}
	e.Time = p.sp.Now()
	e.Proc = p.id
	p.sp.Emit(*e)
}

// emitTrace is the engine's emit sink: it assigns the global sequence
// number at merge time and forwards the event to the attached tracer. It
// runs single-threaded on the scheduler's control thread.
func (s *System) emitTrace(_ int64, _ int, payload any) {
	if s.tracer == nil {
		return
	}
	s.traceSeq++
	ev := payload.(TraceEvent)
	ev.Seq = s.traceSeq
	s.tracer.Event(ev)
}

// traceState summarizes a block's local protocol state for a trace event's
// human Detail.
func (p *Proc) traceState(base int) string {
	st := p.grp.img.State(base)
	priv := memory.State(0)
	if p.priv != nil {
		priv = p.priv.Get(base)
	}
	e := p.grp.miss[base]
	es := "-"
	if e != nil && !e.complete {
		es = fmt.Sprintf("%v(da=%v,eg=%v,acks=%d/%d)",
			e.kind, e.dataArrived, e.exclGranted, e.acksReceived, e.acksExpected)
	}
	return fmt.Sprintf("state=%v priv=%v seq=%d entry=%s", st, priv, p.grp.copySeq[base], es)
}
