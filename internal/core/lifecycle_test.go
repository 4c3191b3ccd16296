package core

import (
	"fmt"
	"strings"
	"testing"

	"flowercdn/internal/bitset"
	"flowercdn/internal/bloom"
	"flowercdn/internal/dring"
	"flowercdn/internal/gossip"
	"flowercdn/internal/metrics"
	"flowercdn/internal/model"
	"flowercdn/internal/overlay"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/trace"
	"flowercdn/internal/workload"
)

// lifecycleEnv builds a two-member overlay at (site 0, locality 0) whose
// capacity is exhausted — pool member 2 stays a new client forever, served
// but never admitted — lets views, summaries and the directory index
// settle, then stops every ticker, so that whatever the kernel runs
// afterwards is query lifecycle and nothing else (in particular no gossip
// round rebuilds a content summary the queries dirtied).
func lifecycleEnv(t *testing.T, hardened bool) *testEnv {
	e := newTestEnv(t, 91, func(c *Config) { c.MaxOverlaySize = 2 })
	if hardened {
		e.sys.InstallFaults(scheduleOnlyPlane())
	}
	e.submitAt(simkernel.Second, 0, 0, 0, 3)
	e.submitAt(2*simkernel.Second, 0, 0, 1, 5)
	e.submitAt(3*simkernel.Minute, 0, 0, 1, 3)
	e.k.Run(20 * simkernel.Minute)
	e.stopAllTimers()
	return e
}

// scheduleOnlyPlane is a fault plane that injects nothing a test reaches:
// one partition window long after every run ends, which draws no random
// number. Installing it only makes the system hardened.
func scheduleOnlyPlane() *simnet.FaultConfig {
	return &simnet.FaultConfig{Partitions: []simnet.PartitionWindow{
		{Locality: 0, Start: 1000 * simkernel.Hour, End: 1001 * simkernel.Hour}}}
}

// stopAllTimers stops every ticker and armed timeout of every host.
func (e *testEnv) stopAllTimers() {
	for _, h := range e.sys.hosts {
		if h != nil {
			h.stopTimers()
		}
	}
}

// submitNow injects a query at the current instant without building the
// closure submitAt schedules.
func (e *testEnv) submitNow(si, loc, member, obj int) {
	site := e.cfg.Sites[si]
	e.sys.Submit(workload.Query{
		At: e.k.Now(), Site: site, SiteIdx: si, Locality: loc, Member: member,
		Object: model.ObjectID{Site: site, Num: obj},
	})
	e.k.Run(e.k.Now() + 2*simkernel.Second)
}

// TestQueryLifecycleAllocs is the alloc gate for a query's whole life
// through the real System, network and kernel: pump-side submit, pooled
// Query record with its inline candidates, typed await continuations,
// pooled routed, serve and push envelopes. After warm-up none of it
// allocates: the record is back in the pool once nothing reaches it.
func TestQueryLifecycleAllocs(t *testing.T) { checkLifecycleAllocs(t, false) }

// TestTraceEnabledAllocs: with a tracer installed whose buffer has already
// wrapped, the same paths record their events at 0 allocs/op — a record
// carries no text, only values the emission site already holds.
func TestTraceEnabledAllocs(t *testing.T) { checkLifecycleAllocs(t, true) }

func checkLifecycleAllocs(t *testing.T, traced bool) {
	const runs = 109 // 8 warm-up rounds, one AllocsPerRun calibration round and 100 measured
	env := func(t *testing.T, hardened bool) (*testEnv, *trace.Buffer) {
		e := lifecycleEnv(t, hardened)
		var buf *trace.Buffer
		if traced {
			buf = trace.NewBuffer(16)
			e.sys.tracer = buf
		}
		return e, buf
	}
	measure := func(t *testing.T, e *testEnv, buf *trace.Buffer, op func()) {
		t.Helper()
		before := e.mets.Snapshot(e.k.Now())
		for i := 0; i < 8; i++ {
			op() // pools, slabs, registry, timer arena and trace buffer reach capacity
		}
		allocs := testing.AllocsPerRun(100, op)
		after := e.mets.Snapshot(e.k.Now())
		if got := after.BySource["peer"] - before.BySource["peer"]; got != runs {
			t.Fatalf("%d of %d queries were served by an overlay peer; the measured path is not the intended one", got, runs)
		}
		if allocs != 0 {
			t.Fatalf("query lifecycle allocates %.1f allocs/op (traced %v), want 0", allocs, traced)
		}
		// Every query is at least submitted, dispatched and served.
		if buf != nil && buf.Total() < 3*runs {
			t.Fatalf("%d events recorded for %d queries", buf.Total(), runs)
		}
		for _, q := range e.sys.pool.awaiting {
			if q != nil {
				t.Fatalf("query %d still holds an await-registry slot after the run", q.ID)
			}
		}
		if p := &e.sys.pool; len(p.queries) != e.sys.stats.QueryRecords {
			t.Fatalf("%d of %d query records are back in the pool after the run", len(p.queries), e.sys.stats.QueryRecords)
		}
	}

	t.Run("member-view-hit-and-push", func(t *testing.T) {
		e, buf := env(t, false)
		member := e.sys.host(e.sys.PoolNode(0, 0, 1))
		ref := e.sys.in.RefFor(0, 3)
		if member.cp == nil || !member.cp.Has(ref) {
			t.Fatal("member did not join or lacks the probe object")
		}
		pushes := e.mets.Snapshot(e.k.Now()).Traffic
		measure(t, e, buf, func() {
			// Forget the object (pushing the removal), then ask for it again:
			// a view contact's summary matches, the contact serves, and
			// storing the object pushes the addition.
			member.cp.RemoveObject(ref)
			e.sys.maybePush(member)
			e.submitNow(0, 0, 1, 3)
		})
		if !member.cp.Has(ref) {
			t.Fatal("member did not get the object back")
		}
		sent := func(ts []metrics.TrafficStat) int64 {
			for _, s := range ts {
				if s.Category == simnet.CatPush {
					return s.Messages
				}
			}
			return 0
		}
		if got := sent(e.mets.Snapshot(e.k.Now()).Traffic) - sent(pushes); got != 2*runs {
			t.Fatalf("%d pushes for %d remove+add rounds, want %d", got, runs, 2*runs)
		}
	})

	for _, hardened := range []bool{false, true} {
		name := "new-client-routed-redirect-serve"
		if hardened {
			name += "-hardened"
		}
		t.Run(name, func(t *testing.T) {
			e, buf := env(t, hardened)
			client := e.sys.host(e.sys.PoolNode(0, 0, 2))
			measure(t, e, buf, func() { e.submitNow(0, 0, 2, 3) })
			if client.cp != nil {
				t.Fatal("the client was admitted to a full overlay")
			}
		})
	}
}

// TestTickerArmAllocs: arming a joined peer's round builds no Ticker
// object, no method value and no per-host closure — the handle is a value
// in the host record and the callback was bound at construction.
func TestTickerArmAllocs(t *testing.T) {
	e := lifecycleEnv(t, false)
	s := e.sys
	member := s.host(s.PoolNode(0, 0, 1))
	if member.cp == nil {
		t.Fatal("member did not join")
	}
	op := func() {
		s.startRound(member)
		if member.round.Stopped() {
			t.Fatal("round not armed")
		}
		member.stopTimers()
		e.k.Run(e.k.Now() + max(s.cfg.TGossip, s.cfg.TKeepalive)) // elide the dead first firing
	}
	op() // timer arena and heap reach capacity
	if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
		t.Fatalf("arming a content peer's tickers allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestEnvelopePoolHygiene: a released envelope is zeroed (a pooled push
// keeps only the capacity of its ∆list arrays, a pooled serve that of its
// view seed, cleared), and both releasing it twice and handling it again
// panic. So is a Query record its last reference released (keeping its view
// seed's array and its failure memory, reset), and a second release, a send
// and a message or timer that reaches it panic.
func TestEnvelopePoolHygiene(t *testing.T) {
	e := newTestEnv(t, 92, nil)
	s := e.sys
	h := s.host(s.PoolNode(0, 0, 0))
	q := s.newQuery()
	q.Origin = h.addr

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}

	serve := s.newServeMsg(q, true)
	serve.ViewSeed = append(serve.ViewSeed, gossip.Entry{Node: 5, Age: 1, Summary: bloom.New(64, 2)})
	s.putServeMsg(serve)
	if serve.live || serve.Q != nil || serve.FromContentPeer || len(serve.ViewSeed) != 0 {
		t.Fatalf("released serve envelope not zeroed: %+v", *serve)
	}
	if cap(serve.ViewSeed) < 1 || serve.ViewSeed[:1][0] != (gossip.Entry{}) {
		t.Fatal("released serve envelope lost its view-seed backing, or still pins a summary through it")
	}
	mustPanic("double serve release", func() { s.putServeMsg(serve) })
	mustPanic("dispatching a released serve envelope", func() {
		h.HandleMessage(simnet.Message{From: h.addr, To: h.addr, Payload: serve})
	})

	routed := s.newRoutedMsg(7, q.Origin, q, true)
	s.putRoutedMsg(routed)
	if *routed != (routedMsg{}) {
		t.Fatalf("released routed envelope not zeroed: %+v", *routed)
	}
	mustPanic("double routed release", func() { s.putRoutedMsg(routed) })
	mustPanic("dispatching a released routed envelope", func() {
		h.HandleMessage(simnet.Message{From: h.addr, To: h.addr, Payload: routed})
	})

	push := s.newPushMsg(e.cfg.Sites[0])
	push.M.From = h.addr
	push.M.Added = append(push.M.Added, 1, 2, 3)
	s.putPushMsg(push)
	if push.live || push.Site != "" || push.M.From != 0 || len(push.M.Added) != 0 || len(push.M.Removed) != 0 {
		t.Fatalf("released push envelope not zeroed: %+v", *push)
	}
	if cap(push.M.Added) < 3 {
		t.Fatal("released push envelope lost its reusable ∆list backing")
	}
	mustPanic("double push release", func() { s.putPushMsg(push) })
	mustPanic("dispatching a released push envelope", func() {
		h.HandleMessage(simnet.Message{From: h.addr, To: h.addr, Payload: push})
	})
	if again := s.newPushMsg(e.cfg.Sites[1]); again != push || !again.live {
		t.Fatal("the pool did not hand the released envelope out again, live")
	}

	q.dirSeed = append(q.dirSeed, gossip.Entry{Node: 5, Age: 1})
	q.markTriedDir(3)
	q.markFailedHolder(9)
	s.unref(q) // the test's own reference, the last
	if q.live || q.refs != 0 || q.Origin != 0 || len(q.dirSeed) != 0 || cap(q.dirSeed) < 1 ||
		q.fails.nDirs != 0 || len(q.fails.holders) != 0 || cap(q.fails.holders) < 1 {
		t.Fatalf("released query record not zeroed, or lost its seed array or failure memory: %+v", *q)
	}
	mustPanic("double query release", func() { s.unref(q) })
	mustPanic("sending a released query", func() {
		s.sendQuery(h.addr, h.addr, simnet.CatQuery, bytesQueryCtl, redirectMsg{Q: q})
	})
	mustPanic("dispatching a message that carries a released query", func() {
		h.HandleMessage(simnet.Message{From: h.addr, To: h.addr, Payload: nackMsg{Q: q}})
	})
	mustPanic("a timer reaching a released query", func() {
		s.pool.awaiting[q.awaitSlot] = q
		s.resumeAwait(uint64(q.awaitSlot))
	})
	if r := s.Audit(); len(r.Violations) != 1 || !strings.HasPrefix(r.Violations[0], "await:") {
		t.Fatalf("audit missed the released query in the await registry: %v", r.Violations)
	}
	s.pool.awaiting[q.awaitSlot] = nil
	q.refs = 1
	if r := s.Audit(); len(r.Violations) != 1 || !strings.HasPrefix(r.Violations[0], "query pool:") {
		t.Fatalf("audit missed a pooled query record holding a reference: %v", r.Violations)
	}
	q.refs = 0
	if again := s.newQuery(); again != q || !again.live || again.refs != 1 {
		t.Fatal("the pool did not hand the released query record out again, live, with one reference")
	}
}

// TestEnvelopesReturnOnLoss: a pooled envelope whose message the network
// loses — at a failed sender, in the fault plane, at a failed receiver —
// comes back to the pool, its subset buffer or snapshot rows with it, and so
// does a Query
// record once every message carrying it is lost, so a burst of lost
// messages and queries takes nothing from the heap once the pool has seen
// one like it; and gossipMsg, the envelope the network hands back most
// often, panics on a second release like the other three.
func TestEnvelopesReturnOnLoss(t *testing.T) {
	e := newTestEnv(t, 94, nil)
	s := e.sys
	up, deadTo, deadFrom := s.PoolNode(0, 0, 0), s.PoolNode(0, 0, 1), s.PoolNode(0, 0, 2)
	s.net.Fail(deadTo)
	s.net.Fail(deadFrom)
	site, sum := e.cfg.Sites[0], bloom.New(64, 2)

	const rounds = 40
	burst := func() {
		for i := 0; i < rounds; i++ {
			from, to := up, deadTo
			if i%4 == 0 {
				from, to = deadFrom, up
			}
			sub := append(s.takeSubsetBuf(), gossip.Entry{Node: up, Summary: sum}, gossip.Entry{Node: deadTo, Summary: sum})
			s.net.Send(from, to, simnet.CatGossip, 100, s.newGossipMsg(site, 0, overlay.GossipMsg{From: from, Summary: sum, ViewSubset: sub}))
			push := s.newPushMsg(site)
			push.M.Added = append(push.M.Added, 1, 2, 3)
			s.net.Send(from, to, simnet.CatPush, 100, push)
			q := s.newQuery()
			q.Origin = up
			serve := s.newServeMsg(q, true)
			serve.ViewSeed = append(serve.ViewSeed, gossip.Entry{Node: up, Summary: sum})
			s.sendQuery(from, to, simnet.CatTransfer, 100, serve)
			s.sendQuery(from, to, simnet.CatQuery, 100, s.newRoutedMsg(7, up, q, false))
			s.sendQuery(from, to, simnet.CatQuery, 100, redirectMsg{Q: q})
			s.unref(q) // the messages' references are what is left
			snap := take(&s.pool.sync)
			snap.live, snap.Entries = true, append(snap.Entries, dring.IndexEntry{Node: up, Objects: bitset.New(8)})
			s.net.Send(from, to, simnet.CatMaintenance, 100, snap)
		}
		e.k.Run(e.k.Now() + simkernel.Minute)
	}
	pooled := func() [7]int {
		p := &s.pool
		return [7]int{len(p.gossip), len(p.subset), len(p.push), len(p.serve), len(p.routed), len(p.queries), len(p.sync)}
	}

	// Without loss every message to the failed receiver is in flight at
	// once: the most envelopes and records a burst can hold, all handed
	// back on arrival.
	burst()
	warm := pooled()
	inFlight := rounds - rounds/4
	if warm != [7]int{inFlight, inFlight, inFlight, inFlight, inFlight, inFlight, inFlight} {
		t.Fatalf("after a burst with %d messages of each kind and queries in flight the pools hold %v", inFlight, warm)
	}
	if s.stats.QueryRecords != inFlight || s.pool.abandoned != rounds {
		t.Fatalf("%d query records made and %d abandoned for %d queries, %d of them in flight at once",
			s.stats.QueryRecords, s.pool.abandoned, rounds, inFlight)
	}
	sent, dropped := s.net.Sent(), s.net.Dropped()
	if dropped != 6*rounds {
		t.Fatalf("%d of the burst's %d messages were dropped", dropped, 6*rounds)
	}

	s.InstallFaults(&simnet.FaultConfig{LossProb: 0.5})
	burst()
	burst()
	if s.net.FaultDropped() == 0 || s.net.Sent() == sent || s.net.Dropped()-dropped <= 2*6*rounds/4 {
		t.Fatalf("the lossy bursts missed a loss site: %d fault drops, %d sent, %d dropped at an endpoint",
			s.net.FaultDropped(), s.net.Sent()-sent, s.net.Dropped()-dropped)
	}
	if got := pooled(); got != warm || s.stats.QueryRecords != inFlight {
		t.Fatalf("pools hold %v after the lossy bursts, %v before, %d query records made: an envelope or record was lost or a new one made",
			got, warm, s.stats.QueryRecords)
	}
	if sub := s.takeSubsetBuf(); cap(sub) < 2 || sub[:2][0] != (gossip.Entry{}) {
		t.Fatal("a handed-back subset buffer lost its backing, or still pins a summary through it")
	}
	if snap := take(&s.pool.sync); len(snap.Entries) != 0 || cap(snap.Entries) == 0 || snap.live {
		t.Fatal("a handed-back standby snapshot was not emptied, or lost its rows")
	}

	g := s.newGossipMsg(site, 0, overlay.GossipMsg{From: up})
	s.putGossipMsg(g)
	if g.live || g.Site != "" || g.M.From != 0 {
		t.Fatalf("released gossip envelope not zeroed: %+v", *g)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double gossip release did not panic")
		}
	}()
	s.putGossipMsg(g)
}

// TestOriginRetryChainGivesUpAtCap: a query whose origin is cut off (no
// serve ever lands) runs out the hardened origin-retry chain and stops at
// maxOriginRetries, unfinished, with only the caller's reference left —
// the chain is bounded, not a loop that keeps the record alive forever.
func TestOriginRetryChainGivesUpAtCap(t *testing.T) {
	e := newTestEnv(t, 93, nil)
	s := e.sys
	s.InstallFaults(scheduleOnlyPlane())
	h := s.host(s.PoolNode(0, 0, 0))
	q := s.newQuery() // its reference keeps the record out of the pool until the checks
	q.ID, q.Origin, q.Site, q.Ref, q.NewClient = 1, h.addr, e.cfg.Sites[0], s.in.RefFor(0, 3), true
	s.FailPeer(h.addr) // every fetch of the chain is lost at the sender
	s.fallbackToOrigin(h, q)
	e.k.Run(15 * simkernel.Minute) // 10+20+40+80+80+80 s of backoff, plus jitter
	if q.stage == qDone || q.refs != 1 {
		t.Fatalf("the cut-off query was served, or is still referenced (%d references); the cap was never reached", q.refs)
	}
	if r := s.Audit(); len(r.Violations) > 0 {
		t.Fatalf("audit: %v", r.Violations)
	}
	s.unref(q)
}

// TestNewClientRecordAbandonedBehindDeadDirectory: every new client behind a
// dead directory takes the D-ring lookup path — however many queue behind
// the position, none is sent to the origin tier in place of its lookup, and
// each reaches a directory (the live one routing delivers it to) before its
// first lookup deadline. A record whose client dies before any serve lands
// has, without the hardened retry chain, nothing left to resolve it: it is
// abandoned and goes back to the pool, while the live clients' queries finish.
func TestNewClientRecordAbandonedBehindDeadDirectory(t *testing.T) {
	e := newTestEnv(t, 98, func(c *Config) { c.StandbyFailover = true })
	s := e.sys
	buf := trace.NewBuffer(1000)
	s.tracer = buf
	site := e.cfg.Sites[0]
	if !s.FailDirectory(site, 0) {
		t.Fatal("no directory to fail")
	}
	const clients = 3
	for m := 0; m < clients; m++ {
		s.Submit(workload.Query{Site: site, Member: m, Object: model.ObjectID{Site: site, Num: 3}})
	}
	var ids []uint64
	var deadline simkernel.Time
	for _, q := range s.pool.awaiting {
		if q != nil && q.NewClient && q.awaitKind == awaitLookupRetry {
			ids = append(ids, q.ID)
			deadline = s.lookupRetryDelay(q, 0)
		}
	}
	if len(ids) != clients {
		t.Fatalf("%d of %d new clients' queries armed a lookup await behind the dead directory", len(ids), clients)
	}
	if n := e.mets.Snapshot(e.k.Now()).OriginFallbacks; n != 0 {
		t.Fatalf("%d queries sent to the origin tier in place of their lookup", n)
	}
	s.FailPeer(s.PoolNode(0, 0, 0))
	e.k.Run(e.k.Now() + deadline - 1)
	for _, id := range ids {
		reached := false
		for _, ev := range buf.QueryTrace(id) {
			reached = reached || ev.Kind == trace.DirProcess
		}
		if !reached {
			t.Fatalf("query %d reached no directory before its first lookup deadline:\n%s", id, trace.Format(buf.QueryTrace(id)))
		}
	}
	e.k.Run(10 * simkernel.Minute)
	if p := &s.pool; p.abandoned != 1 || p.finished != clients-1 || len(p.queries) != clients {
		t.Fatalf("after client 0 died: %d queries abandoned, %d finished, %d records pooled; want 1, %d, %d",
			p.abandoned, p.finished, len(p.queries), clients-1, clients)
	}
}

// TestQueryRecordsConserved: every query that leaves Submit resolves
// exactly once and leaves nothing behind, whatever the network and churn do
// to it. Each config pumps a generated workload for half an hour, then
// drains for two hours with no new submissions. Afterwards every record ever
// made is back in the pool, the await registry is empty, and the records
// that came back finished plus those abandoned are the queries that left
// Submit — none abandoned on a clean network.
func TestQueryRecordsConserved(t *testing.T) {
	const load, drain = 30 * simkernel.Minute, 2 * simkernel.Hour
	// churn fails a random joined client (every fourth time a random
	// directory instead) every gap until the load ends, reviving clients
	// three minutes later when revive is set.
	churn := func(e *testEnv, gap simkernel.Time, revive bool) {
		rng := e.k.DeriveRNG("test-churn")
		for at := gap; at < load; at += gap {
			e.k.At(at, func() {
				si, loc := rng.Intn(e.cfg.ActiveSites), rng.Intn(e.cfg.Localities)
				if rng.Intn(4) == 0 {
					e.sys.FailDirectory(e.cfg.Sites[si], loc)
					return
				}
				addr := e.sys.PoolNode(si, loc, rng.Intn(e.sys.PoolSize(si, loc)))
				if !e.sys.Joined(addr) || !e.sys.Network().Alive(addr) {
					return
				}
				e.sys.FailPeer(addr)
				if revive {
					e.k.After(3*simkernel.Minute, func() { e.sys.RevivePeer(addr) })
				}
			})
		}
	}
	// Ring maintenance; the fault plane each faulted arm installs makes the
	// run hardened.
	maintained := func(c *Config) { c.MaintenancePeriod = 30 * simkernel.Second }
	cases := []struct {
		name string
		mod  func(*Config)
		arm  func(*testEnv)
	}{
		{"clean", nil, func(*testEnv) {}},
		{"churn", maintained,
			func(e *testEnv) { churn(e, 2*simkernel.Minute, true) }},
		{"fault-storm", maintained, func(e *testEnv) {
			e.sys.InstallFaults(&simnet.FaultConfig{
				LossProb: 0.05, JitterProb: 0.2, JitterMaxMs: 120, SpikeProb: 0.02, SpikeMs: 400,
				Partitions: []simnet.PartitionWindow{
					{Locality: 0, Start: 60 * simkernel.Second, End: 150 * simkernel.Second},
					{Locality: 2, Start: 90 * simkernel.Second, End: 180 * simkernel.Second},
				},
			})
		}},
		{"dircrash-storm", func(c *Config) {
			maintained(c)
			c.StandbyFailover, c.QueryPolicy = true, PolicyViewThenDirectory
		}, func(e *testEnv) {
			e.sys.InstallFaults(&simnet.FaultConfig{LossProb: 0.02, JitterProb: 0.1, JitterMaxMs: 80})
			for _, site := range e.cfg.ActiveSiteIDs() {
				e.k.At(2*simkernel.Minute, func() { e.sys.CrashDirectory(site, 0) })
				e.k.At(150*simkernel.Second, func() { e.sys.CrashDirectory(site, 2) })
			}
		}},
		{"gray-storm", func(c *Config) {
			maintained(c)
			c.Adaptive, c.QueryPolicy, c.TKeepalive = true, PolicyViewThenDirectory, simkernel.Minute
		}, func(e *testEnv) {
			fc := &simnet.FaultConfig{
				LossProb: 0.02, JitterProb: 0.2, JitterMaxMs: 80,
				AsymLoss: []simnet.AsymLossRule{{FromLoc: 0, ToLoc: 1, Prob: 0.35}},
				Flap: []simnet.FlapWindow{{Locality: 2, Start: 200 * simkernel.Second, End: 500 * simkernel.Second,
					Period: 30 * simkernel.Second, DownFor: 10 * simkernel.Second}},
			}
			for _, site := range e.cfg.ActiveSiteIDs() {
				if addr, ok := e.sys.DirectoryAddr(site, 1); ok {
					fc.NodeDegrade = append(fc.NodeDegrade, simnet.DegradeWindow{
						Node: addr, Start: 2 * simkernel.Minute, End: 10 * simkernel.Minute, Factor: 8})
				}
			}
			e.sys.InstallFaults(fc)
			churn(e, 3*simkernel.Minute, false)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEnv(t, 99, tc.mod)
			s, p := e.sys, &e.sys.pool
			tc.arm(e)
			gen, err := workload.New(workload.Config{
				Seed: 99, Sites: e.cfg.ActiveSiteIDs(), ObjectsPerSite: e.cfg.ObjectsPerSite,
				ZipfAlpha: 0.8, QueryRate: 1, PoolSizes: e.cfg.PoolSizes,
			})
			if err != nil {
				t.Fatal(err)
			}
			for q := gen.Next(); q.At < load; q = gen.Next() {
				e.k.At(q.At, func() { s.Submit(q) })
			}
			e.k.Run(load + drain)

			if s.qid < 1000 {
				t.Fatalf("only %d queries left Submit", s.qid)
			}
			if len(p.queries) != s.stats.QueryRecords {
				t.Errorf("%d of the %d query records made are back in the pool", len(p.queries), s.stats.QueryRecords)
			}
			for slot, q := range p.awaiting {
				if q != nil {
					t.Errorf("await slot %d still holds query %d", slot, q.ID)
				}
			}
			if got := uint64(p.finished + p.abandoned); got != s.qid {
				t.Errorf("%d finished + %d abandoned records for %d queries", p.finished, p.abandoned, s.qid)
			}
			if tc.mod == nil && p.abandoned != 0 {
				t.Errorf("%d queries abandoned on a clean network", p.abandoned)
			}
			// Only the query sections and the lifecycle rows: the
			// holder-vs-stash walk flags clients revived into their old overlay
			// in runs that are not hardened.
			for _, v := range s.Audit().Violations {
				if strings.HasPrefix(v, "await:") || strings.HasPrefix(v, "query pool:") || strings.HasPrefix(v, "phase:") {
					t.Errorf("audit: %s", v)
				}
			}
			// At quiescence every live directory's index is self-consistent, and
			// only live directories hold one: a crashed directory's went at the
			// crash.
			dirs, indexes := 0, 0
			for addr, h := range s.hosts {
				if h != nil && h.phase == phDirectory {
					dirs++
				}
				if h == nil || h.dir == nil {
					continue
				}
				indexes++
				if lines, _ := h.dir.AuditConsistency(nil, 0); len(lines) != 0 {
					t.Errorf("directory at %d: %v", addr, lines)
				}
			}
			if dirs == 0 {
				t.Error("no live directory to audit")
			}
			if indexes != dirs {
				t.Errorf("%d directory indexes held for %d live directories", indexes, dirs)
			}
			t.Logf("%d queries: %d finished, %d abandoned, %d records; %d indexes for %d live directories, %d replacements",
				s.qid, p.finished, p.abandoned, s.stats.QueryRecords, indexes, dirs, s.stats.DirReplacements+s.stats.StandbyPromotions)
		})
	}
}

// TestAuditAwaitRegistry: the auditor accepts a query in flight (timer
// armed, continuation set, registry slot live) and reports a registry
// tenant whose continuation was lost.
func TestAuditAwaitRegistry(t *testing.T) {
	e := newTestEnv(t, 94, nil)
	e.submitAt(simkernel.Second, 0, 0, 0, 3)
	e.k.Run(simkernel.Second) // submitted, lookup deadline armed, nothing delivered yet
	var inFlight *Query
	for _, q := range e.sys.pool.awaiting {
		if q != nil {
			inFlight = q
		}
	}
	if inFlight == nil || !inFlight.pending.Active() || inFlight.awaitKind != awaitLookupRetry {
		t.Fatalf("no query awaiting its lookup deadline: %+v", inFlight)
	}
	if r := e.sys.Audit(); len(r.Violations) > 0 {
		t.Fatalf("audit of a healthy in-flight query: %v", r.Violations)
	}
	inFlight.awaitKind = awaitNone
	r := e.sys.Audit()
	if len(r.Violations) != 1 || !strings.HasPrefix(r.Violations[0], "await:") {
		t.Fatalf("audit missed the lost continuation: %v", r.Violations)
	}
}

// TestAuditChecksViews: the auditor looks inside every live content peer's
// gossip view and at its own summary, and reports outside the Checks tally.
// A stale header copied back over a compacted slot array — the one
// corruption the exported API allows — leaves every slot zeroed, i.e. node 0
// several times. A summary released to no holder while a view slot or its
// publisher still uses it — the next publication may overwrite it — is
// reported at each.
func TestAuditChecksViews(t *testing.T) {
	settled := func(t *testing.T) (*testEnv, AuditReport) {
		e := newTestEnv(t, 96, nil)
		for m := 0; m < 3; m++ {
			e.submitAt(simkernel.Time(m+1)*simkernel.Second, 0, 0, m, 3)
		}
		e.k.Run(2 * simkernel.Hour)
		member := e.sys.host(e.sys.PoolNode(0, 0, 1))
		if member.cp == nil || member.cp.View().Len() < 2 {
			t.Fatalf("member's view has too few contacts to corrupt: %+v", member.cp)
		}
		clean := e.sys.Audit()
		if len(clean.Violations) > 0 {
			t.Fatalf("audit of healthy views: %v", clean.Violations)
		}
		return e, clean
	}
	t.Run("stale-header", func(t *testing.T) {
		e, clean := settled(t)
		cp := e.sys.host(e.sys.PoolNode(0, 0, 1)).cp
		v := cp.View()
		stale := *v
		cp.DropOldContacts(0)
		*v = stale
		r := e.sys.Audit()
		if len(r.Violations) != 1 || !strings.HasPrefix(r.Violations[0], "view:") {
			t.Fatalf("audit missed the corrupted view: %v", r.Violations)
		}
		if r.Checks != clean.Checks {
			t.Fatalf("view checks are tallied: %d checks, %d before", r.Checks, clean.Checks)
		}
	})
	t.Run("force-released", func(t *testing.T) {
		e, clean := settled(t)
		member := e.sys.host(e.sys.PoolNode(0, 0, 1))
		publisher := e.sys.host(e.sys.PoolNode(0, 0, 0))
		contact, ok := member.cp.View().Get(publisher.addr)
		if !ok || contact.Summary == nil || contact.Summary != publisher.cp.Summary() {
			t.Fatalf("member does not hold the publisher's current summary: %+v", contact)
		}
		for contact.Summary.Refs() > 0 {
			contact.Summary.Release()
		}
		r := e.sys.Audit()
		want := map[simnet.NodeID]string{publisher.addr: "own summary has no holder", member.addr: "summary has no holder"}
		for _, v := range r.Violations {
			for addr, msg := range want {
				if strings.HasPrefix(v, fmt.Sprintf("view: content peer %d:", addr)) && strings.Contains(v, msg) {
					delete(want, addr)
				}
			}
		}
		if len(want) > 0 || r.Checks != clean.Checks {
			t.Fatalf("audit missed a use after release at %v (%d checks, %d before): %v", want, r.Checks, clean.Checks, r.Violations)
		}
	})
}
