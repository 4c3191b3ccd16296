// Package simnet layers message passing over the event kernel and the
// latency topology: sending a message schedules its delivery at the
// receiving node after the one-way link latency, and every message is
// accounted by byte size and traffic category. The paper's "background
// traffic" metric counts only the gossip and push categories (§6); the
// other categories are tracked so the CLI can report them separately.
//
// The network also models node failure: messages to or from a failed node
// are dropped and counted, which is how protocols above (keepalives, pushes,
// redirections) come to observe the failure. No protocol is told of a loss;
// the payload of every lost message — dead sender, fault plane, dead or
// handler-less receiver — is handed to the OnDrop hook, so that its owner
// can recycle what it carried.
package simnet

import (
	"fmt"
	"math/rand"

	"flowercdn/internal/simkernel"
	"flowercdn/internal/topology"
)

// NodeID aliases the underlay node identifier; one simulated process per
// underlay node.
type NodeID = topology.NodeID

// Category tags a message for traffic accounting.
type Category uint8

// Traffic categories.
const (
	CatGossip      Category = iota // content-overlay gossip exchanges (Algorithm 4)
	CatPush                        // content-peer → directory pushes (Algorithm 5)
	CatDirSummary                  // directory-summary refreshes between directory peers
	CatKeepalive                   // keepalive probes (§5.1)
	CatQuery                       // query routing, redirects, acks
	CatMaintenance                 // DHT maintenance (join/stabilize/fix-fingers)
	CatTransfer                    // object payload transfers (not modelled in size, per §6.1)
	CatReplication                 // active-replication offers/prefetches (§8 extension)
	numCategories
)

// NumCategories is the number of traffic categories.
const NumCategories = int(numCategories)

// String names the category.
func (c Category) String() string {
	switch c {
	case CatGossip:
		return "gossip"
	case CatPush:
		return "push"
	case CatDirSummary:
		return "dir-summary"
	case CatKeepalive:
		return "keepalive"
	case CatQuery:
		return "query"
	case CatMaintenance:
		return "maintenance"
	case CatTransfer:
		return "transfer"
	case CatReplication:
		return "replication"
	default:
		return fmt.Sprintf("category(%d)", uint8(c))
	}
}

// Message is a simulated datagram. Payload is an in-process value; Bytes is
// the modelled wire size used for accounting.
type Message struct {
	From, To NodeID
	Payload  any
	Bytes    int
	Category Category
	// SentAt is stamped by the network when the message leaves the sender.
	SentAt simkernel.Time
}

// Handler consumes messages delivered to a node.
type Handler interface {
	HandleMessage(msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(msg Message)

// HandleMessage calls f(msg).
func (f HandlerFunc) HandleMessage(msg Message) { f(msg) }

// TrafficSink observes every successfully sent message (even if the
// receiver turns out dead: the bytes still crossed the sender's link).
type TrafficSink interface {
	RecordMessage(at simkernel.Time, from, to NodeID, cat Category, bytes int)
}

// Network binds nodes, topology and the kernel together.
//
// Delivery is pooled: in-flight messages live in a reusable slab of Message
// records, and every delivery event is the same long-lived callback bound
// once at construction, parameterised by the slab index through the
// kernel's AtArg path. Send therefore performs zero heap allocations in
// steady state (the slab and its free list stop growing once they cover
// the peak number of in-flight messages), provided the payload itself is
// pointer-shaped or zero-size — see TestHotPathAllocs.
type Network struct {
	kernel   *simkernel.Kernel
	topo     *topology.Topology
	handlers []Handler
	alive    []bool
	sink     TrafficSink

	pending []Message    // slab of in-flight messages, indexed by delivery events
	free    []uint32     // reusable slab indices
	deliver func(uint64) // the one delivery callback, bound once in New

	sent    uint64
	dropped uint64
	onDrop  func(payload any) // nil: a lost payload is left to the collector

	// Fault plane (see faults.go); nil when disabled, so the healthy send
	// path pays one pointer check. fplan is the compiled schedule index
	// built at install; faultRNG is the decision stream.
	faults       *FaultConfig
	fplan        *faultPlan
	faultRNG     *rand.Rand
	faultDropped uint64
}

// New creates a network over topo driven by kernel. All nodes start alive
// with no handler (messages to handler-less nodes are dropped and counted).
func New(kernel *simkernel.Kernel, topo *topology.Topology) *Network {
	n := &Network{
		kernel:   kernel,
		topo:     topo,
		handlers: make([]Handler, topo.NumNodes()),
		alive:    make([]bool, topo.NumNodes()),
	}
	for i := range n.alive {
		n.alive[i] = true
	}
	n.deliver = n.deliverPending // one method-value allocation for the network's lifetime
	return n
}

// Kernel returns the driving event kernel.
func (n *Network) Kernel() *simkernel.Kernel { return n.kernel }

// Topology returns the latency model.
func (n *Network) Topology() *topology.Topology { return n.topo }

// SetSink installs the traffic accounting sink (may be nil).
func (n *Network) SetSink(s TrafficSink) { n.sink = s }

// OnDrop installs the hook that receives the payload of every message the
// network loses: exactly Dropped() + FaultDropped() calls. A send from a
// dead node or into the fault plane calls it before Send returns, so a
// sender must not touch a payload it recycles through the hook after Send.
func (n *Network) OnDrop(f func(payload any)) { n.onDrop = f }

// Register installs the message handler for a node, replacing any previous
// handler.
func (n *Network) Register(id NodeID, h Handler) {
	n.handlers[id] = h
}

// Alive reports whether a node is up. Protocols must not use this as an
// oracle for *remote* state: it exists so a node can consult its own
// liveness and so tests can assert. Remote failure is observed through
// message loss.
func (n *Network) Alive(id NodeID) bool { return n.alive[id] }

// Fail marks a node down. In-flight messages to it are lost on arrival.
func (n *Network) Fail(id NodeID) { n.alive[id] = false }

// Recover marks a node up again.
func (n *Network) Recover(id NodeID) { n.alive[id] = true }

// Latency exposes the one-way latency between two nodes.
func (n *Network) Latency(a, b NodeID) simkernel.Time { return n.topo.Latency(a, b) }

// Send transmits a message. If the sender is dead nothing happens. The
// message is accounted at send time and delivered after the link latency,
// unless the receiver is dead or handler-less at delivery time.
func (n *Network) Send(from, to NodeID, cat Category, bytes int, payload any) {
	if !n.alive[from] {
		n.dropped++
		n.lose(payload)
		return
	}
	now := n.kernel.Now()
	if n.sink != nil {
		n.sink.RecordMessage(now, from, to, cat, bytes)
	}
	n.sent++
	lat := n.topo.Latency(from, to)
	if n.faults != nil {
		// Accounting stays above: the bytes crossed the sender's link even
		// when the network loses them, matching the dead-receiver semantics.
		drop, extra := n.fplan.decide(n.faultRNG, from, n.topo.LocalityOf(from), n.topo.LocalityOf(to), lat, now)
		if drop {
			n.faultDropped++
			n.lose(payload)
			return
		}
		lat += extra
	}
	var idx uint32
	if m := len(n.free); m > 0 {
		idx = n.free[m-1]
		n.free = n.free[:m-1]
	} else {
		n.pending = append(n.pending, Message{})
		idx = uint32(len(n.pending) - 1)
	}
	n.pending[idx] = Message{
		From: from, To: to,
		Payload: payload, Bytes: bytes, Category: cat,
		SentAt: now,
	}
	n.kernel.AfterArg(lat, n.deliver, uint64(idx))
}

// deliverPending fires when a slab record's latency elapses: it releases
// the slot (so re-entrant Sends from the handler can reuse it) and hands
// the message to the receiver, unless the receiver died or unregistered
// while the message was in flight.
func (n *Network) deliverPending(arg uint64) {
	idx := uint32(arg)
	msg := n.pending[idx]
	n.pending[idx].Payload = nil // drop the reference; slab cells outlive messages
	n.free = append(n.free, idx)
	if !n.alive[msg.To] || n.handlers[msg.To] == nil {
		n.dropped++
		n.lose(msg.Payload)
		return
	}
	n.handlers[msg.To].HandleMessage(msg)
}

// lose hands a lost message's payload to the drop hook, if one is set.
func (n *Network) lose(payload any) {
	if n.onDrop != nil {
		n.onDrop(payload)
	}
}

// Sent reports the number of messages accepted for transmission.
func (n *Network) Sent() uint64 { return n.sent }

// Dropped reports the number of messages lost to dead or handler-less
// endpoints.
func (n *Network) Dropped() uint64 { return n.dropped }
