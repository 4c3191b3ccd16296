// Package pastry implements the Pastry distributed hash table (Rowstron &
// Druschel, Middleware 2001 — reference [17] in the paper), the second DHT
// substrate the paper names for D-ring ("D-Ring can be integrated into any
// existing structured overlay based on a standard DHT (e.g., Chord,
// Pastry)", §3.1).
//
// Identifiers are digits of b bits in a circular space (shared with the
// chord package's Space arithmetic). Each node keeps
//
//   - a leaf set: the L/2 numerically closest smaller and larger live
//     nodes, and
//   - a routing table: for each digit position r and digit value c, a node
//     sharing r digits of prefix with us whose digit r equals c.
//
// Routing delivers a key to the node with the numerically closest
// identifier — which is exactly the delivery rule the paper's §3.2 assumes
// ("the DHT key-based routing service redirects the message to the
// directory peer that has an ID that is numerically closest").
package pastry

import (
	"fmt"
	"sort"

	"flowercdn/internal/chord"
	"flowercdn/internal/simnet"
)

// The ring's shape: a 30-bit space (the D-ring identifier width used across
// this repository) of 3-bit digits, and a leaf set of L = 8 (half on each
// side).
const (
	bits      = 30
	digitBits = 3 // b: 2^b columns per routing row
	digits    = bits / digitBits
	leafSet   = 8
)

// Ring is one Pastry overlay.
type Ring struct {
	space chord.Space
	byID  map[chord.ID]*Node
}

// NewRing creates an empty ring.
func NewRing() *Ring {
	return &Ring{space: chord.NewSpace(bits), byID: make(map[chord.ID]*Node)}
}

// Space exposes the identifier arithmetic.
func (r *Ring) Space() chord.Space { return r.space }

// Len reports the number of registered nodes.
func (r *Ring) Len() int { return len(r.byID) }

// Lookup returns the node registered under id, or nil.
func (r *Ring) Lookup(id chord.ID) *Node { return r.byID[id] }

// digit extracts digit position i (most significant first) of id.
func (r *Ring) digit(id chord.ID, i int) int {
	shift := bits - digitBits*(i+1)
	return int((uint64(id) >> shift) & (1<<digitBits - 1))
}

// sharedPrefix counts the leading digits a and b share.
func (r *Ring) sharedPrefix(a, b chord.ID) int {
	for i := 0; i < digits; i++ {
		if r.digit(a, i) != r.digit(b, i) {
			return i
		}
	}
	return digits
}

// Node is one Pastry participant.
type Node struct {
	ring *Ring
	id   chord.ID
	addr simnet.NodeID
	up   bool

	// Leaf set: numerically preceding and following live nodes.
	leftLeaves  []*Node // closest first
	rightLeaves []*Node // closest first
	table       [][]*Node
}

// ID returns the node's identifier.
func (n *Node) ID() chord.ID { return n.id }

// Addr returns the simulated network address.
func (n *Node) Addr() simnet.NodeID { return n.addr }

// Up reports liveness.
func (n *Node) Up() bool { return n.up }

// String implements fmt.Stringer.
func (n *Node) String() string { return fmt.Sprintf("pastry(%d@%d)", n.id, n.addr) }

// AddNode registers a node with the given identifier.
func (r *Ring) AddNode(id chord.ID, addr simnet.NodeID) (*Node, error) {
	id = r.space.Wrap(uint64(id))
	if _, dup := r.byID[id]; dup {
		return nil, fmt.Errorf("pastry: id %d already registered", id)
	}
	n := &Node{ring: r, id: id, addr: addr, up: true}
	n.table = make([][]*Node, digits)
	for i := range n.table {
		n.table[i] = make([]*Node, 1<<digitBits)
	}
	r.byID[id] = n
	return n, nil
}

// Fail marks a node crashed.
func (r *Ring) Fail(n *Node) { n.up = false }

// AliveNodes returns the live nodes sorted by ID.
func (r *Ring) AliveNodes() []*Node {
	all := r.Nodes()
	out := all[:0]
	for _, n := range all {
		if n.up {
			out = append(out, n)
		}
	}
	return out
}

// Nodes returns every registered node sorted by ID.
func (r *Ring) Nodes() []*Node {
	out := make([]*Node, 0, len(r.byID))
	for _, n := range r.byID {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// BuildConverged wires every live node's leaf set and routing table from
// the global membership (the stable starting state, mirroring
// chord.Ring.BuildConverged).
func (r *Ring) BuildConverged() {
	nodes := r.AliveNodes()
	n := len(nodes)
	if n == 0 {
		return
	}
	half := leafSet / 2
	for i, node := range nodes {
		node.leftLeaves = node.leftLeaves[:0]
		node.rightLeaves = node.rightLeaves[:0]
		for d := 1; d <= half && d < n; d++ {
			node.rightLeaves = append(node.rightLeaves, nodes[(i+d)%n])
			node.leftLeaves = append(node.leftLeaves, nodes[(i-d+n)%n])
		}
		for row := range node.table {
			for col := range node.table[row] {
				node.table[row][col] = nil
			}
		}
		// Fill routing table rows: for each other node, slot it into
		// [sharedPrefix][differing digit] if that slot is empty or this
		// candidate is numerically closer to us (a deterministic stand-in
		// for Pastry's proximity choice).
		for _, other := range nodes {
			if other == node {
				continue
			}
			row := r.sharedPrefix(node.id, other.id)
			if row >= digits {
				continue
			}
			col := r.digit(other.id, row)
			cur := node.table[row][col]
			if cur == nil ||
				r.space.CircularDistance(node.id, other.id) < r.space.CircularDistance(node.id, cur.id) {
				node.table[row][col] = other
			}
		}
	}
}

// leafRangeContains reports whether key falls inside the node's leaf-set
// coverage (the circular interval from the farthest left leaf to the
// farthest right leaf).
func (n *Node) leafRangeContains(key chord.ID) bool {
	// If the two leaf-set halves overlap, the leaf set wraps the whole
	// ring (small networks): every key is in range.
	lo, hi := n.id, n.id
	for _, l := range n.leftLeaves {
		if !l.up {
			continue
		}
		for _, r := range n.rightLeaves {
			if r.up && r.id == l.id {
				return true
			}
		}
		lo = l.id
	}
	for _, l := range n.rightLeaves {
		if l.up {
			hi = l.id
		}
	}
	if lo == hi {
		return lo == key || n.id == key
	}
	sp := n.ring.space
	return key == lo || sp.InOpenClosed(lo, hi, key)
}

// closestLeaf returns the live node among self ∪ leaves numerically
// closest to key.
func (n *Node) closestLeaf(key chord.ID) *Node {
	sp := n.ring.space
	best := n
	bestD := sp.CircularDistance(n.id, key)
	for _, leaves := range [2][]*Node{n.leftLeaves, n.rightLeaves} {
		for _, p := range leaves {
			if p == nil || !p.up {
				continue
			}
			if d := sp.CircularDistance(p.id, key); d < bestD || (d == bestD && p.id < best.id) {
				best, bestD = p, d
			}
		}
	}
	return best
}

// Known returns routing table t — the left leaves (t = 0), the right
// leaves (t = 1), then routing-table row t-2 — and false past the last
// one. Entries may be nil or dead. With Predecessor, ID, Up and RouteStep
// it makes Node a dring.Router.
func (n *Node) Known(t int) ([]*Node, bool) {
	switch {
	case t == 0:
		return n.leftLeaves, true
	case t == 1:
		return n.rightLeaves, true
	case t-2 < len(n.table):
		return n.table[t-2], true
	}
	return nil, false
}

// Predecessor returns the closest left leaf (the ring predecessor), or nil.
func (n *Node) Predecessor() *Node {
	if len(n.leftLeaves) == 0 {
		return nil
	}
	return n.leftLeaves[0]
}

// RouteStep is the standard Pastry routing decision: deliver if this node
// is numerically closest within its leaf range, otherwise forward by
// prefix, otherwise (rare case) to any known strictly closer node.
func (n *Node) RouteStep(key chord.ID) (next *Node, deliver bool) {
	if key == n.id {
		return nil, true
	}
	sp := n.ring.space
	if n.leafRangeContains(key) {
		best := n.closestLeaf(key)
		if best == n {
			return nil, true
		}
		return best, false
	}
	row := n.ring.sharedPrefix(n.id, key)
	if row < digits {
		if e := n.table[row][n.ring.digit(key, row)]; e != nil && e.up {
			return e, false
		}
	}
	// Rare case: any known node with at least as long a shared prefix that
	// is strictly closer to the key. The result is a minimum under
	// (distance, ID), so the tables are walked in place, repeats and all.
	var best *Node
	bestD := sp.CircularDistance(n.id, key)
	for t := 0; ; t++ {
		tab, ok := n.Known(t)
		if !ok {
			break
		}
		for _, p := range tab {
			if p == nil || !p.up || n.ring.sharedPrefix(p.id, key) < row {
				continue
			}
			if d := sp.CircularDistance(p.id, key); d < bestD || (d == bestD && best != nil && p.id < best.id) {
				best, bestD = p, d
			}
		}
	}
	if best == nil {
		return nil, true // nowhere closer: we are the destination
	}
	return best, false
}

// Route walks RouteStep from start until delivery, returning the
// destination and hop count (synchronous control-plane form).
func (r *Ring) Route(start *Node, key chord.ID) (*Node, int) {
	cur, hops := start, 0
	limit := 4*digits + 4*bits
	for hops < limit {
		next, deliver := cur.RouteStep(key)
		if deliver {
			return cur, hops
		}
		cur = next
		hops++
	}
	return cur, hops
}
