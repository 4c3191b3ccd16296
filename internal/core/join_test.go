package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"flowercdn/internal/bloom"
	"flowercdn/internal/gossip"
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
// AllocsPerRun rounds down). The directory hands every joiner the same kind
// of view seed, so the one path is the "plain" case.
func TestJoinAllocs(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		const perLoc = 40
		e := newTestEnv(t, 95, func(c *Config) {
			c.MaxOverlaySize = perLoc
			c.PoolSizes = [][]int{{perLoc, perLoc, perLoc}, {5, 5, 5}}
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
			s.round(h)
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

// countingSource counts the draws made through it.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 { c.draws++; return c.Source.Int63() }

// TestDirViewSeedExact: the view seed a directory hands a client it admits
// is a uniform sample, without replacement, of min(L_gossip, members − 1)
// index members other than the client, at every index size, with the
// client in the last slot (a fresh admission) or a middle one (a
// re-admission after a revival). It costs at most one draw per entry, none
// when every eligible member fits, and no allocation once the query's seed
// array exists. At the parent the paper-scale path shuffled the whole index
// (members − 1 draws) and the 100k presets' bounded-draw sampler came up
// short at L_gossip+1 members or fewer.
func TestDirViewSeedExact(t *testing.T) {
	e := newTestEnv(t, 97, func(c *Config) { c.MaxOverlaySize = 100 })
	s, L := e.sys, e.cfg.Gossip.GossipLen
	addr, _ := s.DirectoryAddr(e.cfg.Sites[0], 0)
	dir := s.host(addr).dir
	src := &countingSource{Source: rand.NewSource(5)}
	s.rng = rand.New(src)
	const trials = 20000
	for _, n := range []int{1, 2, L, L + 1, L + 2, 3 * L} {
		for _, slot := range []int{n - 1, n / 2} {
			for _, m := range dir.Members() {
				dir.RemovePeer(m)
			}
			members := make([]simnet.NodeID, n)
			for i := range members {
				members[i] = simnet.NodeID(100000 + i)
				dir.AddOptimistic(members[i], e.obj(0, 1))
			}
			client := members[slot]
			if dir.MemberIndex(client) != slot {
				t.Fatalf("client admitted at position %d, want %d", dir.MemberIndex(client), slot)
			}
			want, draws := min(L, n-1), 0
			if n-1 > L {
				draws = L
			}
			q := &Query{Origin: client}
			count := map[simnet.NodeID]int{}
			src.draws = 0
			for range trials {
				q.dirSeed = s.dirViewSeed(s.host(addr), q)
				if len(q.dirSeed) != want {
					t.Fatalf("n=%d client@%d: seed of %d entries, want %d", n, slot, len(q.dirSeed), want)
				}
				for i, en := range q.dirSeed {
					if en.Node == client || !dir.HasPeer(en.Node) || slices.ContainsFunc(q.dirSeed[:i], func(o gossip.Entry) bool { return o.Node == en.Node }) {
						t.Fatalf("n=%d client@%d: seed entry %d is %d: the client, a stranger or a repeat", n, slot, i, en.Node)
					}
					count[en.Node]++
				}
			}
			// One draw per entry; Intn's rejection step may add a rare extra.
			if src.draws > draws*trials+trials/100 {
				t.Errorf("n=%d client@%d: %d draws over %d seeds, want about %d per seed", n, slot, src.draws, trials, draws)
			}
			p := float64(want) / float64(max(n-1, 1))
			mean, sd := trials*p, math.Sqrt(trials*p*(1-p))
			for _, m := range members {
				if m == client {
					continue
				}
				if d := math.Abs(float64(count[m]) - mean); d > 4*sd {
					t.Errorf("n=%d client@%d: member %d drawn %d times, uniform is %.0f ± %.1f", n, slot, m, count[m], mean, sd)
				}
			}
			if allocs := testing.AllocsPerRun(100, func() { q.dirSeed = s.dirViewSeed(s.host(addr), q) }); allocs != 0 {
				t.Errorf("n=%d client@%d: a seed allocates %.1f times, want 0", n, slot, allocs)
			}
		}
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
// it is handed against the entry-by-entry size model, in which each summary
// costs the bytes of the Bloom filter its owner keeps.
type wireTap struct {
	t       *testing.T
	h       *host
	bloom   int // bytes of a member's Bloom filter
	checked *int
}

// entryBytes is an entry's address and age, plus its summary's Bloom filter.
func (w wireTap) entryBytes(e gossip.Entry) int {
	if e.Summary == nil {
		return 8
	}
	return 8 + w.bloom
}

func (w wireTap) HandleMessage(msg simnet.Message) {
	switch m := msg.Payload.(type) {
	case *gossipMsg:
		want := bytesGossipHdr + 20 + m.M.Dir.WireBytes()
		if m.M.Summary != nil {
			want += w.bloom
		}
		for _, e := range m.M.ViewSubset {
			want += w.entryBytes(e)
		}
		if msg.Bytes != want {
			w.t.Errorf("gossip message %d→%d accounted %d bytes, entry-by-entry sum is %d", msg.From, msg.To, msg.Bytes, want)
		}
		*w.checked++
	case *serveMsg:
		want := bytesServeHdr
		for _, e := range m.ViewSeed {
			want += w.entryBytes(e)
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
// equal the entry-by-entry sum in which every summary costs a Bloom filter of
// 8·nb-ob bits (Table 1) — not the answer set a message carries for it — or
// sim_background_bps would drift.
func TestGossipWireBytesMatchEntrySum(t *testing.T) {
	e := newTestEnv(t, 96, func(c *Config) {
		c.TGossip = 30 * simkernel.Second
		c.TKeepalive = 30 * simkernel.Second
	})
	s := e.sys
	checked := 0
	bloomBytes := bloom.NewForCapacity(e.cfg.ObjectsPerSite).SizeBytes()
	for addr, h := range s.hosts {
		if h != nil {
			s.net.Register(simnet.NodeID(addr), wireTap{t: t, h: h, bloom: bloomBytes, checked: &checked})
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
