package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/memory"
	"repro/internal/protocol"
)

// TraceSchema names the JSONL trace format in file headers.
const TraceSchema = "shasta-trace"

// Header is the first line of every trace file (and of every rotated
// segment). Readers reject files whose schema name or version differs from
// their own.
type Header struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
}

// NewHeader returns the header for traces written by this build.
func NewHeader() Header {
	return Header{Schema: TraceSchema, Version: protocol.TraceSchemaVersion}
}

// wireEvent is the stable JSON shape of one trace event, as ReadTrace
// decodes it; appendEvent writes the same keys in the same order. Key
// names are part of the versioned schema (see protocol.TraceSchemaVersion
// and OBSERVABILITY.md §1); changing or removing one requires a version
// bump. Every typed fact is omitted when zero, so an event carries only the
// keys its op uses.
type wireEvent struct {
	Seq    uint64 `json:"seq"`
	Time   int64  `json:"t"`
	Proc   int    `json:"p"`
	Op     string `json:"op"`
	Msg    string `json:"msg,omitempty"`
	Block  int    `json:"blk"`
	Kind   string `json:"kind,omitempty"`
	Peer   int32  `json:"peer,omitempty"`
	Req    int32  `json:"req,omitempty"`
	MsgSeq int64  `json:"mseq,omitempty"`
	Acks   int32  `json:"acks,omitempty"`
	Hops   int32  `json:"hops,omitempty"`
	ID     int32  `json:"id,omitempty"`
	Prev   int32  `json:"prev,omitempty"`
	Rd     uint64 `json:"rd,omitempty"`
	Wr     uint64 `json:"wr,omitempty"`
	Decl   bool   `json:"decl,omitempty"`
	Queue  int64  `json:"queue,omitempty"`
	Wire   int64  `json:"wire,omitempty"`
	Xfer   int64  `json:"xfer,omitempty"`
	Local  bool   `json:"local,omitempty"`
	Uplink bool   `json:"uplink,omitempty"`
	State  string `json:"st,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// wireStates maps the state names the wire form carries back to states.
var wireStates = map[string]memory.State{}

func init() {
	for st := memory.Invalid; st <= memory.PendingDowngrade; st++ {
		wireStates[st.String()] = st
	}
}

// event converts the wire form to an event, rejecting names outside the
// schema's vocabularies and processors outside [0, protocol.MaxProcs).
func (we *wireEvent) event() (protocol.TraceEvent, error) {
	e := protocol.TraceEvent{
		Seq: we.Seq, Time: we.Time, Proc: we.Proc, Op: we.Op, Msg: we.Msg,
		BaseLine: we.Block, Detail: we.Detail, MsgSeq: we.MsgSeq,
		Rd: we.Rd, Wr: we.Wr, Queue: we.Queue, Wire: we.Wire, Xfer: we.Xfer,
		Peer: we.Peer, Req: we.Req, Acks: we.Acks, Hops: we.Hops, ID: we.ID,
		Prev: we.Prev, Declared: we.Decl, Local: we.Local, Uplink: we.Uplink,
	}
	var ok bool
	if e.Kind, ok = protocol.ParseTraceKind(we.Kind); !ok {
		return e, fmt.Errorf("unknown kind %q", we.Kind)
	}
	if e.State, ok = wireStates[we.State]; !ok && we.State != "" {
		return e, fmt.Errorf("unknown state %q", we.State)
	}
	if e.Proc < 0 || e.Proc >= protocol.MaxProcs {
		return e, fmt.Errorf("processor %d outside [0, %d)", e.Proc, protocol.MaxProcs)
	}
	return e, nil
}

// appendEvent appends e as one JSONL line in the wireEvent shape. It
// allocates nothing, so a sink can stream events at the cost of formatting
// their numbers.
func appendEvent(b []byte, e protocol.TraceEvent) []byte {
	num := func(key string, v int64) {
		if v != 0 {
			b = append(b, key...)
			b = strconv.AppendInt(b, v, 10)
		}
	}
	str := func(key, v string) {
		if v != "" {
			b = append(b, key...)
			b = appendString(b, v)
		}
	}
	flag := func(key string, v bool) {
		if v {
			b = append(b, key...)
		}
	}
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, e.Time, 10)
	b = append(b, `,"p":`...)
	b = strconv.AppendInt(b, int64(e.Proc), 10)
	b = append(b, `,"op":`...)
	b = appendString(b, e.Op)
	str(`,"msg":`, e.Msg)
	b = append(b, `,"blk":`...)
	b = strconv.AppendInt(b, int64(e.BaseLine), 10)
	str(`,"kind":`, e.Kind.String())
	num(`,"peer":`, int64(e.Peer))
	num(`,"req":`, int64(e.Req))
	num(`,"mseq":`, e.MsgSeq)
	num(`,"acks":`, int64(e.Acks))
	num(`,"hops":`, int64(e.Hops))
	num(`,"id":`, int64(e.ID))
	num(`,"prev":`, int64(e.Prev))
	if e.Rd != 0 {
		b = strconv.AppendUint(append(b, `,"rd":`...), e.Rd, 10)
	}
	if e.Wr != 0 {
		b = strconv.AppendUint(append(b, `,"wr":`...), e.Wr, 10)
	}
	flag(`,"decl":true`, e.Declared)
	num(`,"queue":`, e.Queue)
	num(`,"wire":`, e.Wire)
	num(`,"xfer":`, e.Xfer)
	flag(`,"local":true`, e.Local)
	flag(`,"uplink":true`, e.Uplink)
	if e.State != memory.Invalid {
		str(`,"st":`, e.State.String())
	}
	str(`,"detail":`, e.Detail)
	return append(b, "}\n"...)
}

// appendString appends s as a JSON string, byte for byte as encoding/json
// writes it: printable ASCII other than quote, backslash and the HTML
// characters goes through as is, anything else through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // marshaling a string cannot fail
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// WriteHeader writes a trace file header line.
func WriteHeader(w io.Writer) error {
	b, err := json.Marshal(NewHeader())
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteEvent writes one event as a JSONL line.
func WriteEvent(w io.Writer, e protocol.TraceEvent) error {
	_, err := w.Write(appendEvent(nil, e))
	return err
}

// ReadTrace parses one JSONL trace stream: a header line followed by event
// lines. Blank lines are skipped. Traces written by an older schema version
// are rejected: re-record them with this build.
func ReadTrace(r io.Reader) (Header, []protocol.TraceEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var h Header
	var events []protocol.TraceEvent
	var we wireEvent
	sawHeader := false
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		if !sawHeader {
			if err := json.Unmarshal(b, &h); err != nil {
				return h, nil, fmt.Errorf("obsv: line %d: bad trace header: %w", line, err)
			}
			if h.Schema != TraceSchema {
				return h, nil, fmt.Errorf("obsv: not a %s file (schema %q)", TraceSchema, h.Schema)
			}
			if h.Version < protocol.TraceSchemaVersion {
				return h, nil, fmt.Errorf("obsv: trace version %d predates supported version %d (typed event fields): re-record the trace with this build",
					h.Version, protocol.TraceSchemaVersion)
			}
			if h.Version > protocol.TraceSchemaVersion {
				return h, nil, fmt.Errorf("obsv: trace version %d is newer than supported version %d",
					h.Version, protocol.TraceSchemaVersion)
			}
			sawHeader = true
			continue
		}
		we = wireEvent{}
		if err := json.Unmarshal(b, &we); err != nil {
			return h, nil, fmt.Errorf("obsv: line %d: bad trace event: %w", line, err)
		}
		e, err := we.event()
		if err != nil {
			return h, nil, fmt.Errorf("obsv: line %d: bad trace event: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return h, nil, err
	}
	if !sawHeader {
		return h, nil, fmt.Errorf("obsv: empty trace (no header line)")
	}
	return h, events, nil
}
