package dring

import "flowercdn/internal/chord"

// Router is what Algorithm 2 needs of a structured-overlay node. The paper
// says D-ring "can be integrated into any existing structured overlay
// based on a standard DHT (e.g., Chord, Pastry)" (§3.1): *chord.Node and
// *pastry.Node both satisfy it, and the protocol and the substrate
// comparison run the one NextHop below. The zero N means "no node".
type Router[N comparable] interface {
	comparable
	ID() chord.ID
	Up() bool
	// RouteStep is the underlying DHT's routing decision (Algorithm 1's
	// local lookup): the next node toward key, or deliver=true here.
	RouteStep(key chord.ID) (next N, deliver bool)
	// Known returns routing table t of the node's state (t = 0, 1, ...),
	// and false past the last one. Entries may be zero, dead, the node
	// itself or repeated across tables.
	Known(t int) ([]N, bool)
	// Predecessor is the node's ring predecessor, which its tables may
	// not name; it may be zero or dead.
	Predecessor() N
}

// NextHop implements the D-ring routing step of Algorithm 2. It first
// performs the standard DHT local lookup (Algorithm 1, via RouteStep); if
// the resulting candidate serves a different website than the key
// targets, it runs the conditional local lookup for the numerically
// closest known peer with the key's website ID. The message is delivered
// when the best candidate is the current node.
func NextHop[N Router[N]](n N, key chord.ID, ks KeySpec) (next N, deliver bool) {
	next, deliverStd := n.RouteStep(key)
	cand := next
	if deliverStd {
		cand = n
	}
	var none N
	if !ks.SameWebsite(cand.ID(), key) {
		if alt := ConditionalLocalLookup(n, key, ks); alt != none {
			cand = alt
		}
	}
	if cand == n {
		return none, true
	}
	return cand, false
}

// ConditionalLocalLookup searches the peers n knows about (routing tables,
// predecessor — and n itself) for the one numerically closest to key
// among those with the same website ID as key. Returns the zero N if no
// such peer is known.
func ConditionalLocalLookup[N Router[N]](n N, key chord.ID, ks KeySpec) N {
	want := ks.WebsiteIDOf(key)
	var best, none N
	var bestID chord.ID
	var bestDist uint64
	// The winner is a minimum under a total order (distance, then ID), so
	// neither visiting order nor repeated mentions matter: walk n, its
	// predecessor and then its routing tables in place, skip a table's runs
	// of one peer (Chord's low fingers), and test the website before Up().
	tab, ok := []N{n, n.Predecessor()}, true
	for t := 0; ok; t++ {
		prev := none
		for _, p := range tab {
			if p == none || p == prev {
				continue
			}
			prev = p
			id := p.ID()
			if ks.WebsiteIDOf(id) != want || !p.Up() {
				continue
			}
			d := ks.Space.CircularDistance(id, key)
			if best == none || d < bestDist || (d == bestDist && id < bestID) {
				best, bestID, bestDist = p, id, d
			}
		}
		tab, ok = n.Known(t)
	}
	return best
}

// Route walks NextHop from start until delivery, returning the destination
// and hop count; a walk cut at RouteTTL returns where it stopped and the
// TTL (synchronous control-plane form, for tests and the harness).
func Route[N Router[N]](start N, key chord.ID, ks KeySpec) (N, int) {
	cur, ttl := start, RouteTTL(ks.Space)
	for hops := 0; hops < ttl; hops++ {
		next, deliver := NextHop(cur, key, ks)
		if deliver {
			return cur, hops
		}
		cur = next
	}
	return cur, ttl
}

// RouteTTL bounds hop counts for routed messages; generous relative to the
// O(log n) expectation, it only trips on genuinely broken rings and is
// surfaced as a diagnostic counter by the metrics package.
func RouteTTL(space chord.Space) int { return 4*int(space.Bits) + 16 }
