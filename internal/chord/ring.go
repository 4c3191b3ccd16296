package chord

import (
	"fmt"
	"sort"

	"flowercdn/internal/simnet"
)

// Config parameterises a ring.
type Config struct {
	Bits          uint // identifier width (m in the paper)
	SuccessorList int  // successor-list length r (robustness under churn)
}

// DefaultConfig returns a 30-bit space with an 8-entry successor list.
func DefaultConfig() Config { return Config{Bits: 30, SuccessorList: 8} }

// Ring is one Chord overlay instance: the identifier space plus a registry
// of member nodes. Both D-ring (directory peers only) and Squirrel (all
// participants) instantiate their own Ring.
type Ring struct {
	space Space
	cfg   Config
	byID  map[ID]*Node

	succScratch    []*Node // Stabilize's successor list under construction
	diagRouteLoops uint64
}

// NewRing creates an empty ring.
func NewRing(cfg Config) *Ring {
	if cfg.SuccessorList < 1 {
		cfg.SuccessorList = 1
	}
	return &Ring{
		space: NewSpace(cfg.Bits),
		cfg:   cfg,
		byID:  make(map[ID]*Node),
	}
}

// Space returns the ring's identifier space.
func (r *Ring) Space() Space { return r.space }

// Len reports the number of registered nodes (alive or not).
func (r *Ring) Len() int { return len(r.byID) }

// RouteLoopCount reports how many lookups needed the linear fallback; on a
// converged ring this must stay zero (tests assert it).
func (r *Ring) RouteLoopCount() uint64 { return r.diagRouteLoops }

// Lookup returns the node registered under id, or nil.
func (r *Ring) Lookup(id ID) *Node { return r.byID[id] }

// Nodes returns all registered nodes sorted by ID.
func (r *Ring) Nodes() []*Node {
	out := make([]*Node, 0, len(r.byID))
	for _, n := range r.byID {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// AliveNodes returns the live nodes sorted by ID.
func (r *Ring) AliveNodes() []*Node {
	out := make([]*Node, 0, len(r.byID))
	for _, n := range r.byID {
		if n.up {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// AddNode registers a node with the given identifier. The node starts up
// but unlinked; call Join or BuildConverged to integrate it.
func (r *Ring) AddNode(id ID, addr simnet.NodeID) (*Node, error) {
	id = r.space.Wrap(uint64(id))
	if _, dup := r.byID[id]; dup {
		return nil, fmt.Errorf("chord: id %d already registered", id)
	}
	n := &Node{
		ring:    r,
		id:      id,
		addr:    addr,
		up:      true,
		succs:   make([]*Node, 0, r.cfg.SuccessorList),
		fingers: make([]*Node, r.space.Bits),
	}
	r.byID[id] = n
	return n, nil
}

// HashAddr derives a ring ID from a network address, linearly probing past
// collisions (Squirrel assigns peer IDs by hashing, §6.1).
func (r *Ring) HashAddr(addr simnet.NodeID) ID {
	id := r.space.HashString(fmt.Sprintf("peer-%d", addr))
	for {
		if _, taken := r.byID[id]; !taken {
			return id
		}
		id = r.space.Add(id, 1)
	}
}

// RemoveNode unregisters a node entirely (administrative; protocols use
// Fail/Leave instead).
func (r *Ring) RemoveNode(id ID) { delete(r.byID, id) }

// BuildConverged wires every registered live node into the exact stable
// Chord configuration: sorted successors, predecessors, full successor
// lists and correct fingers. The paper starts its experiments "with a
// stable D-ring"; this is that starting state.
func (r *Ring) BuildConverged() {
	nodes := r.AliveNodes()
	n := len(nodes)
	if n == 0 {
		return
	}
	for i, node := range nodes {
		node.pred = nodes[(i-1+n)%n]
		node.succs = node.succs[:0]
		for j := 1; j <= r.cfg.SuccessorList && j <= n; j++ {
			node.succs = append(node.succs, nodes[(i+j)%n])
		}
		if n == 1 {
			node.pred = node
			node.succs = append(node.succs, node)
		}
		for f := range node.fingers {
			target := r.space.Add(node.id, 1<<uint(f))
			node.fingers[f] = r.successorOf(nodes, target)
		}
		node.nextFinger = 0
	}
}

// successorOf finds, in a sorted slice, the first node clockwise from key.
func (r *Ring) successorOf(sorted []*Node, key ID) *Node {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i].id >= key })
	if i == len(sorted) {
		i = 0
	}
	return sorted[i]
}

// SuccessorOfKey resolves successor(key) against the current live
// membership — the ground truth used by tests and by converged builds.
func (r *Ring) SuccessorOfKey(key ID) *Node {
	nodes := r.AliveNodes()
	if len(nodes) == 0 {
		return nil
	}
	return r.successorOf(nodes, key)
}

// --- Dynamic membership (join / leave / fail / repair) ------------------

// Join integrates node n into the ring through any live bootstrap member,
// per the Chord join protocol: the node asks the bootstrap to find its
// successor; predecessor and fingers fill in via stabilization.
func (r *Ring) Join(n *Node, bootstrap *Node) error {
	if n == nil || bootstrap == nil {
		return fmt.Errorf("chord: nil node in join")
	}
	if !bootstrap.up {
		return fmt.Errorf("chord: bootstrap %v is down", bootstrap)
	}
	n.up = true
	n.pred = nil
	succ := bootstrap.FindSuccessor(n.id)
	if succ == nil || succ == n {
		// First/only other node.
		succ = bootstrap
	}
	n.succs = append(n.succs[:0], succ)
	for i := range n.fingers {
		n.fingers[i] = nil
	}
	n.fingers[0] = succ
	return nil
}

// Fail marks a node crashed: its state is kept (for post-mortem in tests)
// but no other node will route to or through it once they notice.
func (r *Ring) Fail(n *Node) { n.up = false }

// Leave performs a graceful departure: the node hands its position to its
// neighbours before going down.
func (r *Ring) Leave(n *Node) {
	succ := n.Successor()
	if succ != nil && succ != n {
		if succ.pred == n {
			succ.pred = n.pred
		}
	}
	if n.pred != nil && n.pred != n && n.pred.up {
		// Splice the successor list of the predecessor.
		n.pred.dropFromSuccessors(n)
		if succ != nil {
			n.pred.pushFrontSuccessor(succ)
		}
	}
	n.up = false
}

func (n *Node) dropFromSuccessors(x *Node) {
	out := n.succs[:0]
	for _, s := range n.succs {
		if s != x {
			out = append(out, s)
		}
	}
	n.succs = out
}

func (n *Node) pushFrontSuccessor(s *Node) {
	if s == n {
		return
	}
	for _, cur := range n.succs {
		if cur == s {
			return
		}
	}
	n.succs = append([]*Node{s}, n.succs...)
	if len(n.succs) > n.ring.cfg.SuccessorList {
		n.succs = n.succs[:n.ring.cfg.SuccessorList]
	}
}

// Transplant hands a ring position to a new network address (the §5.2
// voluntary-leave handoff in the paper: the departing directory "transfers
// to A its directory and its routing table"). The new node inherits the
// old one's identifier and links; every reference other nodes hold to the
// old node is patched, and the old node goes down.
func (r *Ring) Transplant(old *Node, newAddr simnet.NodeID) *Node {
	nn := &Node{
		ring:    r,
		id:      old.id,
		addr:    newAddr,
		up:      true,
		pred:    old.pred,
		succs:   append([]*Node(nil), old.succs...),
		fingers: append([]*Node(nil), old.fingers...),
	}
	if nn.pred == old {
		nn.pred = nn
	}
	for i, s := range nn.succs {
		if s == old {
			nn.succs[i] = nn
		}
	}
	for i, f := range nn.fingers {
		if f == old {
			nn.fingers[i] = nn
		}
	}
	old.up = false
	r.byID[old.id] = nn
	for _, m := range r.byID {
		if m == nn {
			continue
		}
		if m.pred == old {
			m.pred = nn
		}
		for i, s := range m.succs {
			if s == old {
				m.succs[i] = nn
			}
		}
		for i, f := range m.fingers {
			if f == old {
				m.fingers[i] = nn
			}
		}
	}
	return nn
}

// Stabilize runs one round of the Chord stabilization protocol on n:
// verify the immediate successor, adopt a closer one if its predecessor
// reveals it, refresh the successor list, and notify the successor.
func (n *Node) Stabilize() {
	if !n.up {
		return
	}
	// Drop dead entries from the successor list head.
	for len(n.succs) > 0 && (n.succs[0] == nil || !n.succs[0].up) {
		n.succs = n.succs[1:]
	}
	succ := n.Successor()
	if succ == nil {
		// The entire successor list failed (a run of consecutive crashes
		// longer than the list). Recover through the closest clockwise
		// live peer we still know — fingers or predecessor. In a two-node
		// ring this correctly selects the predecessor.
		var cand *Node
		var candDist uint64
		for _, p := range n.KnownPeers() {
			d := n.ring.space.Distance(n.id, p.id)
			if cand == nil || d < candDist {
				cand, candDist = p, d
			}
		}
		if cand == nil {
			n.succs = append(n.succs[:0], n)
			return
		}
		n.succs = append(n.succs[:0], cand)
		succ = cand
	}
	if x := succ.pred; x != nil && x.up && x != n && n.ring.space.InOpen(n.id, succ.id, x.id) {
		n.pushFrontSuccessor(x)
		succ = x
	}
	// Refresh the successor list from the successor's list, built in the
	// ring's scratch (succ.succs may be n's own list).
	list := append(n.ring.succScratch[:0], succ)
	for _, s := range succ.succs {
		if len(list) >= n.ring.cfg.SuccessorList {
			break
		}
		if s != nil && s.up && s != n && s != succ {
			dup := false
			for _, have := range list {
				if have == s {
					dup = true
					break
				}
			}
			if !dup {
				list = append(list, s)
			}
		}
	}
	n.ring.succScratch = list
	n.succs = append(n.succs[:0], list...)
	succ.Notify(n)
}

// Notify tells n that candidate p might be its predecessor.
func (n *Node) Notify(p *Node) {
	if !n.up || p == nil || !p.up || p == n {
		return
	}
	if n.pred == nil || !n.pred.up || n.pred == n || n.ring.space.InOpen(n.pred.id, n.id, p.id) {
		n.pred = p
	}
}

// CheckPredecessor clears a dead predecessor pointer.
func (n *Node) CheckPredecessor() {
	if n.pred != nil && !n.pred.up {
		n.pred = nil
	}
}

// FixNextFinger refreshes one finger-table entry per call, cycling through
// the table (the incremental scheme from the Chord paper).
func (n *Node) FixNextFinger() {
	if !n.up {
		return
	}
	i := n.nextFinger
	n.nextFinger = (n.nextFinger + 1) % len(n.fingers)
	target := n.ring.space.Add(n.id, 1<<uint(i))
	n.fingers[i] = n.FindSuccessor(target)
}

// FixAllFingers refreshes the whole finger table (used after joins in
// tests and by the harness when churn repair must converge quickly).
func (n *Node) FixAllFingers() {
	for range n.fingers {
		n.FixNextFinger()
	}
}
