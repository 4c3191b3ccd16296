// Package trace provides lightweight structured tracing of protocol
// events — the observability layer a downstream user needs to understand
// *why* a query took the path it did (D-ring routing, redirections,
// failures, replacements). Tracing is optional and zero-cost when no
// tracer is installed.
package trace

import (
	"fmt"
	"strings"

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
	Prefetch
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	names := [...]string{
		"query-submitted", "route-hop", "dir-process", "redirect",
		"redirect-failed", "forwarded-to-sibling", "peer-query", "peer-nack",
		"server-fetch", "served", "joined", "dir-failure-detected",
		"dir-replaced", "dir-handoff", "prefetch",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one traced protocol step.
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
	peer := ""
	if e.Peer >= 0 {
		peer = fmt.Sprintf(" -> node %d", e.Peer)
	}
	q := ""
	if e.QueryID != 0 {
		q = fmt.Sprintf(" q%d", e.QueryID)
	}
	return fmt.Sprintf("%-8s %-22s%s node %d%s %s", e.At, e.Kind, q, e.Node, peer, e.Detail)
}

// Tracer consumes events. Implementations must be cheap; they run inline
// with the simulation.
type Tracer interface {
	Record(Event)
}

// Buffer is a bounded in-memory tracer (a ring buffer: oldest events are
// dropped once the capacity is reached).
type Buffer struct {
	cap    int
	events []Event
	start  int
	total  uint64
}

// NewBuffer creates a tracer retaining up to capacity events.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 1
	}
	return &Buffer{cap: capacity}
}

// Record implements Tracer.
func (b *Buffer) Record(e Event) {
	b.total++
	if len(b.events) < b.cap {
		b.events = append(b.events, e)
		return
	}
	b.events[b.start] = e
	b.start = (b.start + 1) % b.cap
}

// Total reports how many events were recorded (including dropped ones).
func (b *Buffer) Total() uint64 { return b.total }

// Len reports how many events are retained.
func (b *Buffer) Len() int { return len(b.events) }

// Events returns the retained events in arrival order.
func (b *Buffer) Events() []Event {
	out := make([]Event, 0, len(b.events))
	for i := 0; i < len(b.events); i++ {
		out = append(out, b.events[(b.start+i)%len(b.events)])
	}
	return out
}

// QueryTrace filters the retained events of one query, in order.
func (b *Buffer) QueryTrace(queryID uint64) []Event {
	var out []Event
	for _, e := range b.Events() {
		if e.QueryID == queryID {
			out = append(out, e)
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

// Filter returns the events matching kind.
func Filter(events []Event, kind Kind) []Event {
	var out []Event
	for _, e := range events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}
