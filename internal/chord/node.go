package chord

import (
	"fmt"

	"flowercdn/internal/simnet"
)

// Node is one Chord participant. Nodes are created through Ring.AddNode so
// that identifiers stay unique within a ring. ID, Up, RouteStep, Known and
// Predecessor make it a dring.Router, the node type D-ring's Algorithm 2
// routes over.
type Node struct {
	ring *Ring
	id   ID
	addr simnet.NodeID

	pred    *Node
	succs   []*Node // successor list, succs[0] is the immediate successor
	fingers []*Node // fingers[i] ≈ successor(id + 2^i)

	up         bool
	nextFinger int // round-robin cursor for FixNextFinger
}

// ID returns the node's ring identifier.
func (n *Node) ID() ID { return n.id }

// Addr returns the simulated network address.
func (n *Node) Addr() simnet.NodeID { return n.addr }

// Up reports whether the node is alive from the DHT's perspective.
func (n *Node) Up() bool { return n.up }

// Predecessor returns the current predecessor (may be nil or dead).
func (n *Node) Predecessor() *Node { return n.pred }

// Successor returns the first live successor, or nil if the whole list is
// dead (an isolated node returns itself).
func (n *Node) Successor() *Node {
	for _, s := range n.succs {
		if s != nil && s.up {
			return s
		}
	}
	return nil
}

// SuccessorList returns a copy of the successor list.
func (n *Node) SuccessorList() []*Node {
	out := make([]*Node, len(n.succs))
	copy(out, n.succs)
	return out
}

// String implements fmt.Stringer for diagnostics.
func (n *Node) String() string { return fmt.Sprintf("chord(%d@%d)", n.id, n.addr) }

// Known returns routing table t — the successor list (t = 0) or the
// finger table (t = 1) — and false past the last one, so callers whose
// result depends on neither order nor multiplicity (a min-search, say)
// walk the tables in place. Entries may be nil, dead or the node itself;
// the predecessor is not in them. The others want KnownPeers.
func (n *Node) Known(t int) ([]*Node, bool) {
	switch t {
	case 0:
		return n.succs, true
	case 1:
		return n.fingers, true
	}
	return nil, false
}

// KnownPeers returns every live distinct peer this node can currently name:
// successor list, finger table and predecessor. Order is deterministic
// (ascending ID). The caller owns the slice.
func (n *Node) KnownPeers() []*Node {
	// Routing state is a few dozen pointers: one sorted insertion per
	// mention gives distinctness and order without a map or sort.Slice.
	out := make([]*Node, 0, len(n.succs)+len(n.fingers)+1)
	insert := func(p *Node) {
		if p == nil || p == n || !p.up {
			return
		}
		i := len(out)
		for i > 0 && out[i-1].id > p.id {
			i--
		}
		if i > 0 && out[i-1].id == p.id {
			out[i-1] = p // the later table's pointer wins, as in a map by ID
			return
		}
		out = append(out, nil)
		copy(out[i+1:], out[i:])
		out[i] = p
	}
	for t := 0; ; t++ {
		tab, ok := n.Known(t)
		if !ok {
			break
		}
		for _, p := range tab {
			insert(p)
		}
	}
	insert(n.pred)
	return out
}

// Responsible reports whether this node is responsible for key, i.e.
// key ∈ (predecessor, n]. With no live predecessor the node conservatively
// claims responsibility (the transient Chord behaviour until stabilization
// repairs the pointer).
func (n *Node) Responsible(key ID) bool {
	if key == n.id {
		return true
	}
	if n.pred == nil || !n.pred.up || n.pred == n {
		return true
	}
	return n.ring.space.InOpenClosed(n.pred.id, n.id, key)
}

// ClosestPreceding returns the live known peer whose ID most closely
// precedes key (strictly inside (n, key)), or nil if none is known. This is
// the heart of Algorithm 1's local lookup.
func (n *Node) ClosestPreceding(key ID) *Node {
	sp := n.ring.space
	var best *Node
	consider := func(p *Node) {
		if p == nil || p == n || !p.up {
			return
		}
		if !sp.InOpen(n.id, key, p.id) {
			return
		}
		if best == nil || sp.Distance(p.id, key) < sp.Distance(best.id, key) {
			best = p
		}
	}
	for i := len(n.fingers) - 1; i >= 0; i-- {
		consider(n.fingers[i])
	}
	for _, s := range n.succs {
		consider(s)
	}
	return best
}

// RouteStep is the standard DHT routing decision (Algorithm 1 in the
// paper): it returns the next node a message for key should visit, or
// deliver=true when this node is the destination.
func (n *Node) RouteStep(key ID) (next *Node, deliver bool) {
	if n.Responsible(key) {
		return nil, true
	}
	succ := n.Successor()
	if succ == nil || succ == n {
		return nil, true
	}
	if n.ring.space.InOpenClosed(n.id, succ.id, key) {
		return succ, false
	}
	if p := n.ClosestPreceding(key); p != nil {
		return p, false
	}
	return succ, false
}

// FindSuccessor resolves the node responsible for key by walking the ring
// (synchronous control-plane lookup used by maintenance). Returns nil if
// no live route exists.
func (n *Node) FindSuccessor(key ID) *Node {
	cur := n
	for hops := 0; hops < 4*int(n.ring.space.Bits)+8; hops++ {
		next, deliver := cur.RouteStep(key)
		if deliver {
			return cur
		}
		if next == nil || next == cur {
			return cur
		}
		cur = next
	}
	// Routing loop: should not happen on a consistent ring; fall back to a
	// linear successor walk which always terminates on a live ring.
	n.ring.diagRouteLoops++
	cur = n
	for hops := 0; hops < n.ring.Len()+1; hops++ {
		if cur.Responsible(key) {
			return cur
		}
		s := cur.Successor()
		if s == nil || s == cur {
			return cur
		}
		cur = s
	}
	return cur
}
