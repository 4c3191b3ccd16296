package core

import (
	"testing"

	"flowercdn/internal/metrics"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// TestJoinAllocs is the alloc gate for turning a client into a content
// peer: routed lookup → admission and directory view seed → redirect → serve
// with the holder's view seed → joinOverlay → first push → first gossip
// exchange. What a join may cost is its state, not its plumbing: the
// ContentPeer struct, the word array behind its bitsets, the view's slot
// array, its first published summary (one block: filter and bits) and the
// directory's holdings bitset for the new member — five, and one to spare
// (holder lists and the timer arena grow by amortised fractions, which
// AllocsPerRun rounds down).
func TestJoinAllocs(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		name := "plain"
		if sparse {
			name = "sparse-seeds"
		}
		t.Run(name, func(t *testing.T) {
			const perLoc = 40
			e := newTestEnv(t, 95, func(c *Config) {
				c.MaxOverlaySize = perLoc
				c.PoolSizes = [][]int{{perLoc, perLoc, perLoc}, {5, 5, 5}}
				c.SparseSeeds = sparse
				// A joiner's tickers are stopped right after its query's window:
				// periods this long keep their random first firing out of it.
				c.TGossip, c.TKeepalive = 24*simkernel.Hour, 24*simkernel.Hour
			})
			s := e.sys
			e.stopAllTimers() // directories' ticks: only joins run
			next := 0
			join := func() {
				loc, member := next%3, next/3
				next++
				h := s.host(s.PoolNode(0, loc, member))
				e.submitNow(0, loc, member, 3)
				e.k.Run(e.k.Now() + 8*simkernel.Second) // inter-locality lookups outlast submitNow's window
				if h.cp == nil {
					t.Fatalf("client %d of locality %d did not join", member, loc)
				}
				h.stopTimers()
				s.gossipTick(h)
				e.k.Run(e.k.Now() + 2*simkernel.Second)
			}
			for next < 12 {
				join() // founders are served by the origin; the pools fill
			}
			before := e.mets.Snapshot(e.k.Now())
			allocs := testing.AllocsPerRun(100, join)
			after := e.mets.Snapshot(e.k.Now())
			if got := after.BySource["peer"] - before.BySource["peer"]; got != 101 {
				t.Fatalf("%d of 101 joiners were served by an overlay peer; the measured path is not the intended one", got)
			}
			if got := sentIn(after, simnet.CatGossip) - sentIn(before, simnet.CatGossip); got != 2*101 {
				t.Fatalf("%d gossip messages for 101 first exchanges, want %d", got, 2*101)
			}
			if got := s.Stats().Joins; got != next {
				t.Fatalf("%d joins for %d clients", got, next)
			}
			if allocs > 6 {
				t.Fatalf("a join allocates %.0f times, want <= 6", allocs)
			}
		})
	}
}

func sentIn(r metrics.Report, cat simnet.Category) int64 {
	for _, ts := range r.Traffic {
		if ts.Category == cat {
			return ts.Messages
		}
	}
	return 0
}

// wireTap sits in front of a host and checks every gossip and serve message
// it is handed against the entry-by-entry size model.
type wireTap struct {
	t       *testing.T
	h       *host
	checked *int
}

func (w wireTap) HandleMessage(msg simnet.Message) {
	switch m := msg.Payload.(type) {
	case *gossipMsg:
		want := bytesGossipHdr + 20 + m.M.Dir.WireBytes()
		if m.M.Summary != nil {
			want += m.M.Summary.SizeBytes()
		}
		for _, e := range m.M.ViewSubset {
			want += e.WireBytes()
		}
		if msg.Bytes != want {
			w.t.Errorf("gossip message %d→%d accounted %d bytes, entry-by-entry sum is %d", msg.From, msg.To, msg.Bytes, want)
		}
		*w.checked++
	case *serveMsg:
		want := bytesServeHdr
		for _, e := range m.ViewSeed {
			want += e.WireBytes()
		}
		if msg.Bytes != want {
			w.t.Errorf("serve message %d→%d accounted %d bytes, entry-by-entry sum is %d", msg.From, msg.To, msg.Bytes, want)
		}
	}
	w.h.HandleMessage(msg)
}

// TestGossipWireBytesMatchEntrySum: gossip and serve messages are sized
// from the count of summaries present times the system's one summary shape,
// without dereferencing any; on every such message of a short churned run
// (joins, failures, a revival, views with and without summaries) that must
// equal the sum of Entry.WireBytes, or sim_background_bps would drift.
func TestGossipWireBytesMatchEntrySum(t *testing.T) {
	e := newTestEnv(t, 96, func(c *Config) {
		c.TGossip = 30 * simkernel.Second
		c.TKeepalive = 30 * simkernel.Second
	})
	s := e.sys
	checked := 0
	for addr, h := range s.hosts {
		if h != nil {
			s.net.Register(simnet.NodeID(addr), wireTap{t: t, h: h, checked: &checked})
		}
	}
	at := simkernel.Second
	for round := 0; round < 6; round++ {
		for loc := 0; loc < 3; loc++ {
			for member := 0; member < 5; member++ {
				e.submitAt(at, 0, loc, member, (round*5+member)%e.cfg.ObjectsPerSite)
				at += 2 * simkernel.Second
			}
		}
	}
	e.k.Run(2 * simkernel.Minute)
	s.FailPeer(s.PoolNode(0, 0, 1))
	s.FailPeer(s.PoolNode(0, 1, 2))
	e.k.Run(5 * simkernel.Minute)
	s.RevivePeer(s.PoolNode(0, 0, 1))
	e.k.Run(10 * simkernel.Minute)
	if checked < 200 {
		t.Fatalf("only %d gossip messages were checked; the run did not exercise gossip", checked)
	}
}
