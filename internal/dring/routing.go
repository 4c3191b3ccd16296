package dring

import "flowercdn/internal/chord"

// NextHop implements the D-ring routing step of Algorithm 2. It first
// performs the standard DHT local lookup (Algorithm 1, via
// chord.Node.RouteStep); if the resulting candidate serves a different
// website than the key targets, it runs the conditional local lookup for
// the numerically closest known peer with the key's website ID. The
// message is delivered when the best candidate is the current node.
func NextHop(n *chord.Node, key chord.ID, ks KeySpec) (next *chord.Node, deliver bool) {
	next, deliverStd := n.RouteStep(key)
	cand := next
	if deliverStd {
		cand = n
	}
	if !ks.SameWebsite(cand.ID(), key) {
		if alt := ConditionalLocalLookup(n, key, ks); alt != nil {
			cand = alt
		}
	}
	if cand == n {
		return nil, true
	}
	return cand, false
}

// ConditionalLocalLookup searches the peers n knows about (routing table,
// successor list, predecessor — and n itself) for the one numerically
// closest to key among those with the same website ID as key. Returns nil
// if no such peer is known.
func ConditionalLocalLookup(n *chord.Node, key chord.ID, ks KeySpec) *chord.Node {
	want := ks.WebsiteIDOf(key)
	var best *chord.Node
	var bestDist uint64
	consider := func(p *chord.Node) {
		if p == nil || !p.Up() || ks.WebsiteIDOf(p.ID()) != want {
			return
		}
		d := ks.Space.CircularDistance(p.ID(), key)
		if best == nil || d < bestDist || (d == bestDist && p.ID() < best.ID()) {
			best, bestDist = p, d
		}
	}
	// The winner is a minimum under a total order (distance, then ID), so
	// neither visiting order nor repeated mentions matter: walk the routing
	// tables in place instead of materialising a sorted peer list per hop.
	consider(n)
	n.VisitKnown(consider)
	return best
}

// RouteTTL bounds hop counts for routed messages; generous relative to the
// O(log n) expectation, it only trips on genuinely broken rings and is
// surfaced as a diagnostic counter by the metrics package.
func RouteTTL(space chord.Space) int { return 4*int(space.Bits) + 16 }
