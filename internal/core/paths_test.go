package core

import (
	"testing"

	"flowercdn/internal/gossip"
	"flowercdn/internal/metrics"
	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/trace"
)

// These tests pin down the less-travelled protocol paths: stale-summary
// NACKs, forward failures, gossip rejections after locality changes, the
// new-client retry path, and directory bootstrap for orphaned localities.

func TestStaleSummaryNackPath(t *testing.T) {
	e := newTestEnv(t, 20, func(c *Config) {
		c.TGossip = simkernel.Hour // freeze gossip: we hand-craft the view
		c.TKeepalive = simkernel.Hour
	})
	// Two members join.
	e.submitAt(simkernel.Second, 0, 0, 0, 1)
	e.submitAt(2*simkernel.Second, 0, 0, 1, 2)
	e.k.Run(10 * simkernel.Second)
	a := e.sys.host(e.sys.PoolNode(0, 0, 0))
	b := e.sys.host(e.sys.PoolNode(0, 0, 1))
	if a.cp == nil || b.cp == nil {
		t.Fatal("members not joined")
	}
	// Hand b a summary for a that FALSELY claims object 5 (models a stale
	// summary: a could have evicted the object).
	fake := a.cp.Summary().Clone()
	fake.Add(e.objKey(0, 5))
	b.cp.View().Refresh(a.addr, fake)
	// b now asks for object 5: peer-query a → NACK → server.
	e.submitAt(20*simkernel.Second, 0, 0, 1, 5)
	e.k.Run(30 * simkernel.Second)
	r := e.mets.Snapshot(30 * simkernel.Second)
	if r.BySource["server"] != 3 {
		t.Fatalf("stale summary should end at server: %v", r.BySource)
	}
}

// obj interns (site index, object number) through the system's interner.
func (e *testEnv) obj(si, num int) model.ObjectRef {
	return e.sys.in.RefFor(si, num)
}

// objKey is the canonical string form (for seeding Bloom filters by hand).
func (e *testEnv) objKey(si, num int) string {
	return model.ObjectID{Site: e.cfg.Sites[si], Num: num}.Key()
}

func TestForwardFailFallsBackToServer(t *testing.T) {
	e := newTestEnv(t, 21, nil)
	// Locality 0 has object 3; its directory publishes a summary; then the
	// holder disappears from locality 0's index via eviction... simpler:
	// poison locality 1's directory with a *stale* neighbour summary that
	// claims an object nobody has.
	e.submitAt(simkernel.Second, 0, 0, 0, 3)
	e.k.Run(5 * simkernel.Second)
	site := e.cfg.Sites[0]
	d1addr, _ := e.sys.DirectoryAddr(site, 1)
	d0addr, _ := e.sys.DirectoryAddr(site, 0)
	d0 := e.sys.host(d0addr)
	d1 := e.sys.host(d1addr)
	fake := d0.dir.BuildSummary().Clone()
	fake.Add(e.objKey(0, 9)) // nobody holds object 9
	d1.dir.UpdateNeighborSummary(d0.dir.Key(), 0, fake)
	// A new client in locality 1 asks for object 9: D-ring → d(ws,1) →
	// forwarded to d(ws,0) (summary hit) → forward-fail → server.
	e.submitAt(10*simkernel.Second, 0, 1, 0, 9)
	e.k.Run(30 * simkernel.Second)
	r := e.mets.Snapshot(30 * simkernel.Second)
	if r.BySource["server"] != 2 {
		t.Fatalf("forward-fail should end at server: %v", r.BySource)
	}
	if r.TotalQueries != 2 {
		t.Fatalf("queries = %d", r.TotalQueries)
	}
}

func TestGossipRejectAfterLocalityChange(t *testing.T) {
	e := newTestEnv(t, 22, func(c *Config) {
		c.TGossip = 30 * simkernel.Second
		c.TKeepalive = simkernel.Hour
	})
	e.submitAt(simkernel.Second, 0, 0, 0, 1)
	e.submitAt(2*simkernel.Second, 0, 0, 1, 2)
	e.k.Run(10 * simkernel.Second)
	mover := e.sys.PoolNode(0, 0, 1)
	stayer := e.sys.host(e.sys.PoolNode(0, 0, 0))
	// Make sure the stayer definitely lists the mover, then move it away.
	stayer.cp.View().Refresh(mover, nil)
	e.sys.ChangeLocality(mover, 2)
	// The remaining member keeps gossiping at the mover; the mover must
	// reject, and the member must drop the contact.
	e.k.Run(5 * simkernel.Minute)
	if e.sys.Stats().GossipRejects == 0 {
		t.Fatal("no gossip rejections after locality change")
	}
	if stayer.cp.View().Contains(mover) {
		t.Fatal("stayer still lists the moved peer")
	}
}

func TestNewClientRetryAfterEntryFailure(t *testing.T) {
	e := newTestEnv(t, 23, func(c *Config) {
		c.MaintenancePeriod = 10 * simkernel.Second
	})
	// Fail most directories of inactive websites so random entry picks
	// often die... deterministic alternative: fail ALL directories except
	// the active site's, then watch a query still resolve via retry if the
	// first entry was dead. Simplest deterministic check: kill one
	// directory, run many new-client queries; at least sometimes the dead
	// node is chosen as entry and the query must still resolve.
	site := e.cfg.Sites[1]
	e.sys.FailDirectory(site, 2)
	for m := 0; m < 5; m++ {
		e.submitAt(simkernel.Time(m+1)*simkernel.Minute, 0, m%3, m, m)
	}
	e.k.Run(30 * simkernel.Minute)
	r := e.mets.Snapshot(30 * simkernel.Minute)
	if r.TotalQueries != 5 {
		t.Fatalf("all queries must resolve despite a dead potential entry: %d/5", r.TotalQueries)
	}
}

func TestDirBootstrapForOrphanedLocality(t *testing.T) {
	e := newTestEnv(t, 24, func(c *Config) {
		c.MaintenancePeriod = 10 * simkernel.Second
	})
	site := e.cfg.Sites[0]
	// Kill locality 2's directory while its overlay is still EMPTY — no
	// content peer exists to run the §5.2 replacement.
	if !e.sys.FailDirectory(site, 2) {
		t.Fatal("failed to fail directory")
	}
	// Let stabilization absorb the failure.
	e.k.Run(2 * simkernel.Minute)
	// A new client from locality 2 queries: routed to a same-website
	// directory of another locality, served, and then volunteers to
	// restore d(site,2).
	e.submitAt(3*simkernel.Minute, 0, 2, 0, 4)
	e.k.Run(20 * simkernel.Minute)
	if e.sys.Stats().DirBootstraps == 0 {
		t.Fatal("orphaned locality did not trigger a directory bootstrap")
	}
	if _, ok := e.sys.DirectoryAddr(site, 2); !ok {
		t.Fatal("directory position still empty after bootstrap")
	}
	// And the restored directory is the client itself (a content peer).
	addr, _ := e.sys.DirectoryAddr(site, 2)
	nh := e.sys.host(addr)
	if nh.cp == nil || nh.dir == nil {
		t.Fatal("bootstrap directory is not a content peer")
	}
}

func TestTracedRunRecordsLifecycle(t *testing.T) {
	k := simkernel.New(30)
	e := newTestEnvWithTracer(t, 30, k)
	e.submitAt(simkernel.Second, 0, 0, 0, 1)
	e.submitAt(simkernel.Minute, 0, 0, 1, 1)
	e.k.Run(2 * simkernel.Minute)
	buf := e.buf
	if buf.Len() == 0 {
		t.Fatal("no events traced")
	}
	q1 := buf.QueryTrace(1)
	kinds := map[string]bool{}
	for _, ev := range q1 {
		kinds[ev.Kind.String()] = true
	}
	for _, want := range []string{"query-submitted", "dir-process", "served"} {
		if !kinds[want] {
			t.Fatalf("query 1 trace missing %q: %v", want, kinds)
		}
	}
	// Second query should be peer-served: its trace includes a redirect.
	q2 := buf.QueryTrace(2)
	found := false
	for _, ev := range q2 {
		if ev.Kind == trace.Redirect {
			found = true
		}
	}
	if !found {
		t.Fatalf("query 2 trace missing redirect: %s", trace.Format(q2))
	}
}

// newTestEnvWithTracer builds the standard small system with a tracer.
type tracedEnv struct {
	*testEnv
	buf *trace.Buffer
}

func newTestEnvWithTracer(t *testing.T, seed int64, k *simkernel.Kernel) *tracedEnv {
	t.Helper()
	base := newTestEnv(t, seed, nil)
	// Rebuild with a tracer: simplest is to reconstruct deps; instead we
	// re-create the environment manually here.
	buf := trace.NewBuffer(100000)
	base.sys.tracer = buf
	return &tracedEnv{testEnv: base, buf: buf}
}

func TestDirectoryLeaveWithoutSuccessorRefused(t *testing.T) {
	// A directory with an empty overlay has nobody to hand over to; the
	// voluntary leave must be refused and the directory must stay.
	e := newTestEnv(t, 33, nil)
	site := e.cfg.Sites[0]
	if e.sys.DirectoryLeave(site, 0) {
		t.Fatal("leave accepted with empty overlay")
	}
	if _, ok := e.sys.DirectoryAddr(site, 0); !ok {
		t.Fatal("directory vanished after refused leave")
	}
}

func TestFailPeerOnServerIgnored(t *testing.T) {
	e := newTestEnv(t, 34, nil)
	server := e.sys.ServerOf(e.cfg.Sites[0])
	e.sys.FailPeer(server) // must be a no-op
	if !e.sys.Network().Alive(server) {
		t.Fatal("origin server failed via FailPeer")
	}
}

func TestRevivePeerRejoinsAsNewClient(t *testing.T) {
	e := newTestEnv(t, 31, nil)
	e.submitAt(simkernel.Second, 0, 0, 0, 2)
	e.k.Run(simkernel.Minute)
	addr := e.sys.PoolNode(0, 0, 0)
	if !e.sys.Joined(addr) {
		t.Fatal("client did not join")
	}
	e.sys.FailPeer(addr)
	if e.sys.RevivePeer(addr) != true {
		t.Fatal("revive refused")
	}
	if e.sys.Joined(addr) {
		t.Fatal("revived peer kept stale membership")
	}
	// Reviving an alive node is a no-op failure.
	if e.sys.RevivePeer(addr) {
		t.Fatal("reviving an alive peer should fail")
	}
	// Its next query goes through the new-client path and it rejoins.
	e.submitAt(2*simkernel.Minute, 0, 0, 0, 3)
	e.k.Run(5 * simkernel.Minute)
	if !e.sys.Joined(addr) {
		t.Fatal("revived peer did not rejoin")
	}
	if e.sys.Stats().Joins != 2 {
		t.Fatalf("joins = %d, want 2 (original + rejoin)", e.sys.Stats().Joins)
	}
}

func TestReviveDirectoryRefused(t *testing.T) {
	e := newTestEnv(t, 32, nil)
	site := e.cfg.Sites[0]
	addr, _ := e.sys.DirectoryAddr(site, 0)
	e.sys.FailDirectory(site, 0)
	if e.sys.RevivePeer(addr) {
		t.Fatal("directory host must not be revivable as a plain client")
	}
}

// A directory that leaves keeps a stopped round (FailPeer'd directories
// cannot be revived at all). Revived, rejoined and promoted again, it must
// get a fresh round that runs every part: arm-once guards used to compare
// against the zero Ticker, so a re-promoted directory never stabilised
// again.
func TestRepromotedDirectoryRearmsTickers(t *testing.T) {
	e := newTestEnv(t, 33, func(c *Config) {
		c.MaintenancePeriod = 10 * simkernel.Second
		c.StandbyFailover = true
	})
	site := e.cfg.Sites[0]
	aged, synced, stabilised := countParts(t, 0), countParts(t, 1), countParts(t, 2)
	leave := func() simnet.NodeID {
		t.Helper()
		if !e.sys.DirectoryLeave(site, 0) {
			t.Fatal("voluntary leave refused")
		}
		addr, _ := e.sys.DirectoryAddr(site, 0)
		return addr
	}
	e.submitAt(simkernel.Second, 0, 0, 0, 1)
	e.submitAt(2*simkernel.Second, 0, 0, 1, 2)
	e.k.Run(simkernel.Minute)
	first := leave() // one of the two members takes the position ...
	e.k.Run(2 * simkernel.Minute)
	if leave() == first { // ... hands it to the other and departs ...
		t.Fatal("premise: the position did not move on")
	}
	if len(activeTimers(e.sys.host(first))) > 0 || !e.sys.RevivePeer(first) {
		t.Fatal("premise: departed directory still ticking, or not revivable")
	}
	member := 0
	if e.sys.PoolNode(0, 0, 1) == first {
		member = 1
	}
	e.submitAt(3*simkernel.Minute, 0, 0, member, 3) // ... rejoins as a client ...
	e.k.Run(5 * simkernel.Minute)
	if got := leave(); got != first { // ... and is the only successor left.
		t.Fatalf("re-promotion went to %d, want %d", got, first)
	}
	if e.sys.host(first).role.round.Stopped() {
		t.Fatal("re-promoted directory holds a stopped round")
	}
	// Four minutes on the round's 10 s ticks: 24 stabilisations, 24 standby
	// syncs (15 s, rounded down to one round) and two index sweeps at
	// TGossip = 2 min.
	age, sync, stab := aged[first], synced[first], stabilised[first]
	e.k.Run(e.k.Now() + 4*simkernel.Minute)
	age, sync, stab = aged[first]-age, synced[first]-sync, stabilised[first]-stab
	if age != 2 || sync != 24 || stab != 24 {
		t.Fatalf("re-promoted directory aged its index %d times, synced its standby %d and stabilised %d in 4 minutes, want 2, 24 and 24",
			age, sync, stab)
	}
}

// countParts counts, per host, the runs of directory round part i
// (dirParts) until the test ends.
func countParts(t *testing.T, i int) map[simnet.NodeID]int {
	runs, part := map[simnet.NodeID]int{}, dirParts[i]
	dirParts[i] = func(s *System, h *host) { runs[h.addr]++; part(s, h) }
	t.Cleanup(func() { dirParts[i] = part })
	return runs
}

func TestMetricsSourcesConsistent(t *testing.T) {
	// Every query resolves to exactly one source; totals must add up.
	e := newTestEnv(t, 25, nil)
	for i := 0; i < 60; i++ {
		e.submitAt(simkernel.Time(i*20+1)*simkernel.Second, i%2, i%3, i%5, i%7)
	}
	e.k.Run(simkernel.Hour)
	r := e.mets.Snapshot(simkernel.Hour)
	var sum int64
	for _, n := range r.BySource {
		sum += n
	}
	if sum != r.TotalQueries {
		t.Fatalf("sources sum %d != total %d", sum, r.TotalQueries)
	}
	if r.TotalQueries != 60 {
		t.Fatalf("lost queries: %d/60", r.TotalQueries)
	}
	_ = metrics.SourceLocal
}

func TestKeepaliveKeepsIndexFresh(t *testing.T) {
	// With keepalives flowing, directory entries must never age out even
	// if the member stops fetching new content.
	e := newTestEnv(t, 26, func(c *Config) {
		c.TGossip = simkernel.Minute
		c.TKeepalive = simkernel.Minute
	})
	e.submitAt(simkernel.Second, 0, 0, 0, 1)
	e.k.Run(30 * simkernel.Minute) // 30 keepalive periods, no new content
	if got := e.sys.DirectoryIndexSize(e.cfg.Sites[0], 0); got != 1 {
		t.Fatalf("member evicted despite keepalives: index=%d", got)
	}
	// Kill the member: after deadAge periods it must be evicted.
	e.sys.FailPeer(e.sys.PoolNode(0, 0, 0))
	e.k.Run(40 * simkernel.Minute)
	if got := e.sys.DirectoryIndexSize(e.cfg.Sites[0], 0); got != 0 {
		t.Fatalf("dead member not evicted: index=%d", got)
	}
}

func TestViewSeedFromDirectoryHasNoSummaries(t *testing.T) {
	// §4.2: a client served from the server gets its view seed from the
	// directory index — entries without content summaries.
	e := newTestEnv(t, 27, func(c *Config) {
		c.TGossip = simkernel.Hour
		c.TKeepalive = simkernel.Hour
	})
	e.submitAt(simkernel.Second, 0, 0, 0, 1)
	e.submitAt(2*simkernel.Second, 0, 0, 1, 2) // different object → server-served
	e.k.Run(10 * simkernel.Second)
	second := e.sys.host(e.sys.PoolNode(0, 0, 1))
	if second.cp == nil {
		t.Fatal("second client did not join")
	}
	entries := second.cp.View().Entries()
	if len(entries) == 0 {
		t.Fatal("view not seeded from directory")
	}
	for _, en := range entries {
		if en.Summary != nil {
			t.Fatalf("directory seed should carry no summaries: %+v", en)
		}
	}
	_ = gossip.Entry{}
}
