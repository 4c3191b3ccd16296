// Package trace records the protocol steps of a run, so a reader can see
// why a query took the path it did (D-ring routing, redirections,
// failures, replacements). The core emits one fixed-size Record per step
// and formats nothing: numbers, a Variant picking the kind's text, and at
// most one string it already holds (an interned object key or a site ID).
// Text is rendered only when a Buffer is read (Events, QueryTrace), with
// strconv and concatenation. A run without a tracer pays nothing; a traced
// run records without allocating once its buffer has grown.
package trace

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"flowercdn/internal/metrics"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// Kind classifies a protocol event.
type Kind uint8

// Event kinds, in rough query-lifecycle order.
const (
	QuerySubmitted Kind = iota
	RouteHop
	DirProcess
	Redirect
	RedirectFailed
	ForwardedToSibling
	PeerQuery
	PeerNack
	ServerFetch
	Served
	Joined
	DirFailureDetected
	DirReplaced
	DirHandoff
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	names := [...]string{
		"query-submitted", "route-hop", "dir-process", "redirect",
		"redirect-failed", "forwarded-to-sibling", "peer-query", "peer-nack",
		"server-fetch", "served", "joined", "dir-failure-detected",
		"dir-replaced", "dir-handoff",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Variant picks one of a kind's texts. Served carries the
// metrics.Source that answered; the kinds below take the named variant or
// 0 for their usual text, and every other kind has one text only.
type Variant uint8

const (
	Member          Variant = 1 + iota // QuerySubmitted by a content-overlay member, not a new client
	ViewExhausted                      // ServerFetch by a member whose view ran out, not a directory's fallback
	Founding                           // Joined as the first member of its content overlay
	StandbyPromoted                    // DirReplaced by a promoted standby, not a §5.2 takeover
)

// Record is one protocol step as the core emits it.
type Record struct {
	At      simkernel.Time
	Query   uint64        // 0 when not query-scoped
	Node    simnet.NodeID // where the step happened
	Peer    simnet.NodeID // counterpart (target of a hop/redirect), or -1
	Str     string        // object key (QuerySubmitted), else the site of the position named
	Loc     int32         // the position's locality
	Args    [2]int32      // Served: lookup latency and transfer distance in whole ms (see Ms)
	Kind    Kind
	Variant Variant
}

// Ms rounds a millisecond quantity to the whole number Served renders,
// half to even as fmt's %.0f does.
func Ms(v float64) int32 { return int32(math.RoundToEven(v)) }

// Detail renders the record's text.
func (r *Record) Detail() string {
	switch r.Kind {
	case QuerySubmitted:
		return pick(r.Variant == Member, "member ", "new-client ") + r.Str
	case DirProcess:
		return r.pos("d")
	case Served:
		return metrics.Source(r.Variant).String() +
			" lookup=" + strconv.Itoa(int(r.Args[0])) + "ms dist=" + strconv.Itoa(int(r.Args[1])) + "ms"
	case Joined:
		return pick(r.Variant == Founding, "founding ", "") + r.pos("content-overlay")
	case DirFailureDetected:
		return r.pos("d") + " silent"
	case DirReplaced:
		return pick(r.Variant == StandbyPromoted, "standby promoted to ", "took over ") + r.pos("d")
	case DirHandoff:
		return r.pos("d") + " voluntary leave"
	case ServerFetch:
		return pick(r.Variant == ViewExhausted, "view exhausted", "directory fallback")
	case RedirectFailed:
		return "timeout"
	case PeerNack:
		return "stale summary or false positive"
	}
	return ""
}

func pick(cond bool, yes, no string) string {
	if cond {
		return yes
	}
	return no
}

// pos renders the position the record names: what(site,locality).
func (r *Record) pos(what string) string {
	return what + "(" + r.Str + "," + strconv.Itoa(int(r.Loc)) + ")"
}

// Event renders the record.
func (r *Record) Event() Event {
	return Event{At: r.At, Kind: r.Kind, QueryID: r.Query, Node: r.Node, Peer: r.Peer, Detail: r.Detail()}
}

// Event is one traced protocol step, rendered.
type Event struct {
	At      simkernel.Time
	Kind    Kind
	QueryID uint64        // 0 when not query-scoped
	Node    simnet.NodeID // where the event happened
	Peer    simnet.NodeID // counterpart (target of a hop/redirect), or -1
	Detail  string
}

// String renders the event on one line.
func (e Event) String() string {
	peer, q := "", ""
	if e.Peer >= 0 {
		peer = fmt.Sprintf(" -> node %d", e.Peer)
	}
	if e.QueryID != 0 {
		q = fmt.Sprintf(" q%d", e.QueryID)
	}
	return fmt.Sprintf("%-8s %-22s%s node %d%s %s", e.At, e.Kind, q, e.Node, peer, e.Detail)
}

// Tracer consumes records. Implementations must be cheap; they run inline
// with the simulation.
type Tracer interface {
	Record(Record)
}

// Buffer is a bounded in-memory tracer (a ring buffer: oldest records are
// dropped once the capacity is reached).
type Buffer struct {
	cap   int
	recs  []Record
	start int
	total uint64
}

// NewBuffer creates a tracer retaining up to capacity events.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 1
	}
	return &Buffer{cap: capacity}
}

// Record implements Tracer.
func (b *Buffer) Record(r Record) {
	b.total++
	if len(b.recs) < b.cap {
		b.recs = append(b.recs, r)
		return
	}
	b.recs[b.start] = r
	b.start = (b.start + 1) % b.cap
}

// Total reports how many events were recorded (including dropped ones).
func (b *Buffer) Total() uint64 { return b.total }

// Len reports how many events are retained.
func (b *Buffer) Len() int { return len(b.recs) }

// Events renders the retained events in arrival order.
func (b *Buffer) Events() []Event {
	out := make([]Event, len(b.recs))
	for i := range out {
		out[i] = b.recs[(b.start+i)%len(b.recs)].Event()
	}
	return out
}

// QueryTrace renders the retained events of one query, in order.
func (b *Buffer) QueryTrace(queryID uint64) []Event {
	var out []Event
	for i := range b.recs {
		if r := &b.recs[(b.start+i)%len(b.recs)]; r.Query == queryID {
			out = append(out, r.Event())
		}
	}
	return out
}

// Format renders a slice of events as a multi-line transcript.
func Format(events []Event) string {
	var sb strings.Builder
	for _, e := range events {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
