package core

import (
	"slices"
	"testing"

	"flowercdn/internal/gossip"
	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/workload"
)

// phaseStep runs do and checks that it moved h to phase to, recording the
// move in seen.
func phaseStep(t *testing.T, seen map[[2]phase]bool, h *host, to phase, do func()) {
	t.Helper()
	from := h.phase
	do()
	if h.phase != to {
		t.Fatalf("host %d went %s → %s, want → %s", h.addr, from, h.phase, to)
	}
	seen[[2]phase{from, to}] = true
}

// TestLifecycleTransitions drives every move legalNext lists through the
// protocol paths that make it — construction, join, standby designation and
// revocation, §5.4 locality change, crash, revival, §5.2 hand-over and
// standby promotion — and checks that transition refuses, with a panic and
// before touching the record, every move it does not list.
func TestLifecycleTransitions(t *testing.T) {
	seen := map[[2]phase]bool{}

	// Without standbys: the member, client, directory, dead and gone moves.
	e := newTestEnv(t, 97, nil)
	s := e.sys
	if srv := s.host(s.ServerOf(e.cfg.Sites[0])); srv.phase != phServer {
		t.Fatalf("origin server is %s", srv.phase)
	}
	addr, _ := s.DirectoryAddr(e.cfg.Sites[0], 1)
	prim := s.host(addr)
	if prim.phase != phDirectory {
		t.Fatalf("founding directory is %s", prim.phase)
	}
	seen[[2]phase{phClient, phDirectory}] = true // installDirectory at construction
	m := make([]*host, 4)
	for i := range m {
		m[i] = s.host(s.PoolNode(0, 1, i))
		phaseStep(t, seen, m[i], phMember, func() {
			e.submitNow(0, 1, i, i)
			e.k.Run(e.k.Now() + simkernel.Minute)
		})
	}
	phaseStep(t, seen, m[3], phClient, func() { s.ChangeLocality(m[3].addr, 2) })
	phaseStep(t, seen, m[3], phDead, func() { s.FailPeer(m[3].addr) })
	phaseStep(t, seen, m[3], phClient, func() { s.RevivePeer(m[3].addr) })
	phaseStep(t, seen, m[2], phDead, func() { s.FailPeer(m[2].addr) })
	successor := m[0] // the most stable live member
	phaseStep(t, seen, prim, phDead, func() {
		phaseStep(t, seen, successor, phDirectory, func() { s.DirectoryLeave(e.cfg.Sites[0], 1) })
	})
	phaseStep(t, seen, successor, phGone, func() { s.FailPeer(successor.addr) })

	// With standbys: designation, revocation, and leaving the standby phase
	// by a locality change, a crash and a promotion.
	e = newTestEnv(t, 97, func(c *Config) {
		c.StandbyFailover = true
		c.MaintenancePeriod = 10 * simkernel.Second
	})
	s = e.sys
	for i := range m {
		e.submitAt(simkernel.Time(i+1)*simkernel.Second, 0, 1, i, i)
	}
	e.k.Run(5 * simkernel.Minute)
	addr, _ = s.DirectoryAddr(e.cfg.Sites[0], 1)
	prim = s.host(addr)
	for i := 0; i < 3; i++ { // one standby after another
		sb := s.host(prim.role.standby)
		if sb == nil || !sb.watches(prim.addr) {
			t.Fatalf("standby %d: the directory designated none", i)
		}
		switch i {
		case 0:
			phaseStep(t, seen, sb, phMember, func() { s.handleStandbyRevoke(sb, prim.addr) })
			phaseStep(t, seen, sb, phStandby, func() { e.k.Run(e.k.Now() + simkernel.Minute) })
			phaseStep(t, seen, sb, phClient, func() { s.ChangeLocality(sb.addr, 2) })
		case 1:
			phaseStep(t, seen, sb, phDead, func() { s.FailPeer(sb.addr) })
		case 2:
			phaseStep(t, seen, prim, phGone, func() {
				phaseStep(t, seen, sb, phDirectory, func() {
					s.FailPeer(prim.addr)
					e.k.Run(e.k.Now() + simkernel.Minute)
				})
			})
		}
		e.k.Run(e.k.Now() + simkernel.Minute)
	}
	if r := s.Audit(); len(r.Violations) > 0 {
		t.Fatalf("audit after the moves: %v", r.Violations)
	}

	phases := []phase{phClient, phMember, phStandby, phDirectory, phServer, phDead, phGone}
	for _, from := range phases {
		for _, to := range phases {
			legal := from < phase(len(legalNext)) && slices.Contains(legalNext[from], to)
			if legal {
				if !seen[[2]phase{from, to}] {
					t.Errorf("no protocol path drove %s → %s", from, to)
				}
				continue
			}
			h := &host{sys: s, addr: s.PoolNode(0, 2, 4), phase: from}
			before := *h
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("transition %s → %s did not panic", from, to)
					}
				}()
				s.transition(h, to)
			}()
			if *h != before {
				t.Errorf("the refused move %s → %s changed the record", from, to)
			}
		}
	}
}

// TestLocalityChangeEndsStandby: a warm standby that changes locality (§5.4)
// stops being its directory's standby at once — its watchdog stops and its
// replica goes — so once it rejoins elsewhere the directory designates
// another member, and when the directory crashes it is not the one that
// takes the position over. A crashed host cannot change locality: its
// revival would wipe the override.
func TestLocalityChangeEndsStandby(t *testing.T) {
	e := newTestEnv(t, 97, func(c *Config) { c.StandbyFailover = true })
	s := e.sys
	site := e.cfg.Sites[0]
	for m := 0; m < 3; m++ {
		e.submitAt(simkernel.Time(m+1)*simkernel.Second, 0, 1, m, m)
	}
	e.k.Run(5 * simkernel.Minute)
	addr, _ := s.DirectoryAddr(site, 1)
	prim := s.host(addr)
	sb := s.host(prim.role.standby)
	if sb == nil || !sb.watches(addr) {
		t.Fatal("premise: the directory designated no standby")
	}
	member := -1
	for m := 0; m < 3; m++ {
		if s.PoolNode(0, 1, m) == sb.addr {
			member = m
		}
	}

	if !s.ChangeLocality(sb.addr, 2) {
		t.Fatal("the standby's locality change was refused")
	}
	if sb.phase != phClient || !sb.role.probeTicker.Stopped() || sb.role.replica != nil {
		t.Fatalf("after its locality change the standby is %s, probing=%v, replica kept=%v",
			sb.phase, !sb.role.probeTicker.Stopped(), sb.role.replica != nil)
	}
	e.submitAt(e.k.Now()+simkernel.Second, 0, 1, member, 7) // rejoins in locality 2
	e.k.Run(e.k.Now() + 5*simkernel.Minute)
	if sb.cp == nil || sb.cp.Locality() != 2 {
		t.Fatal("premise: the former standby did not rejoin in locality 2")
	}
	if prim.role.standby == sb.addr || sb.watches(addr) {
		t.Fatalf("locality 2's member %d is still the standby of d(%s,1)", sb.addr, site)
	}

	s.FailPeer(addr)
	e.k.Run(e.k.Now() + 5*simkernel.Minute)
	now, ok := s.DirectoryAddr(site, 1)
	if !ok || now == sb.addr || !sb.plainPeer() || sb.cp.Locality() != 2 {
		t.Fatalf("d(%s,1) is now %d (held=%v); the former standby %d is %s in locality %d",
			site, now, ok, sb.addr, sb.phase, sb.cp.Locality())
	}
	if r := s.Audit(); len(r.Violations) > 0 {
		t.Fatalf("audit: %v", r.Violations)
	}

	dead := s.PoolNode(0, 1, 3)
	e.submitAt(e.k.Now()+simkernel.Second, 0, 1, 3, 4)
	e.k.Run(e.k.Now() + simkernel.Minute)
	s.FailPeer(dead)
	if s.ChangeLocality(dead, 0) || s.host(dead).has(hfLocOverride) {
		t.Fatal("a crashed host changed locality")
	}
}

// nodeZeroEnv builds the test environment and checks that node 0 is
// d(Sites[0], 0), as in every preset: the position a "0 = none" sentinel
// used to hide.
func nodeZeroEnv(t *testing.T, seed int64, mod func(*Config)) (*testEnv, *host) {
	t.Helper()
	e := newTestEnv(t, seed, mod)
	if addr, ok := e.sys.DirectoryAddr(e.cfg.Sites[0], 0); !ok || addr != 0 {
		t.Fatalf("premise: d(%s,0) is node %d, not node 0", e.cfg.Sites[0], addr)
	}
	return e, e.sys.host(0)
}

// TestNodeZeroStandbyPromotes: node 0's warm standby probes it like any
// other primary's, so when node 0 crashes the standby promotes and no cold
// §5.2 replacement runs.
func TestNodeZeroStandbyPromotes(t *testing.T) {
	e, dir := nodeZeroEnv(t, 97, func(c *Config) { c.StandbyFailover = true })
	s := e.sys
	for m := 0; m < 3; m++ {
		e.submitAt(simkernel.Time(m+1)*simkernel.Second, 0, 0, m, m)
	}
	e.k.Run(5 * simkernel.Minute)
	sb := s.host(dir.role.standby)
	if sb == nil || !sb.watches(0) {
		t.Fatal("premise: node 0 designated no standby")
	}
	s.CrashDirectory(e.cfg.Sites[0], 0)
	e.k.Run(e.k.Now() + 5*simkernel.Minute)
	st := s.Stats()
	if st.StandbyPromotions != 1 || st.DirReplacements != 0 {
		t.Fatalf("after node 0 crashed: %d standby promotions, %d cold replacements; want 1, 0",
			st.StandbyPromotions, st.DirReplacements)
	}
	if now, _ := s.DirectoryAddr(e.cfg.Sites[0], 0); now != sb.addr {
		t.Fatalf("d(%s,0) is node %d, not the standby %d", e.cfg.Sites[0], now, sb.addr)
	}
}

// TestNodeZeroAdmitsOnce: a new client's query that node 0 handles is
// admitted, and its view seed drawn, once — not again each time Algorithm 3
// re-runs after its first holder failed to answer. The client's index entry
// is aged and its seed marked between the two runs; a second admission
// would reset the age, a second draw overwrite the mark.
func TestNodeZeroAdmitsOnce(t *testing.T) {
	e, dir := nodeZeroEnv(t, 91, nil)
	s := e.sys
	for m := 0; m < 3; m++ {
		e.submitAt(simkernel.Time(m+1)*simkernel.Second, 0, 0, m, 3)
	}
	e.k.Run(10 * simkernel.Minute)
	e.stopAllTimers() // only the query's own events run from here
	ref := e.obj(0, 3)
	holders := dir.dir.Holders(ref)
	if len(holders) < 2 {
		t.Fatalf("premise: %d holders of the object, want 2 or more", len(holders))
	}
	first := slices.Min(holders)
	s.FailPeer(first) // the directory still lists it
	client := s.PoolNode(0, 0, 4)
	site := e.cfg.Sites[0]
	s.Submit(workload.Query{Site: site, Locality: 0, Member: 4, Object: model.ObjectID{Site: site, Num: 3}})
	var q *Query
	for _, a := range s.pool.awaiting {
		if a != nil && a.Origin == client {
			q = a
		}
	}
	for q != nil && q.stage != qDone && (q.awaitKind != awaitRedirect || simnet.NodeID(q.awaitA) != first) {
		next, _ := e.k.NextEvent()
		e.k.Run(next) // until the redirect to the dead holder waits
	}
	if q == nil || q.awaitKind != awaitRedirect || simnet.NodeID(q.awaitA) != first || q.handlerDir != 0 || !q.admitted {
		t.Fatalf("premise: the query does not wait on node 0's redirect to holder %d: %+v", first, q)
	}
	age := func() int {
		for _, en := range dir.dir.ExportEntries(nil) {
			if en.Node == client {
				return en.Age
			}
		}
		t.Fatal("the admitted client is not in the index")
		return 0
	}
	dir.dir.TickAges()
	const mark = 77
	for i := range q.dirSeed {
		q.dirSeed[i].Age = mark
	}
	for q.awaitKind == awaitRedirect && simnet.NodeID(q.awaitA) == first {
		next, _ := e.k.NextEvent()
		e.k.Run(next) // the redirect times out and Algorithm 3 runs again
	}
	if q.awaitKind != awaitRedirect || simnet.NodeID(q.awaitA) == first {
		t.Fatalf("premise: the re-run did not redirect to the next holder (await %d)", q.awaitKind)
	}
	if got := age(); got != 1 {
		t.Errorf("the re-run admitted the client again: its entry's age is %d, want 1", got)
	}
	if len(q.dirSeed) == 0 || slices.ContainsFunc(q.dirSeed, func(en gossip.Entry) bool { return en.Age != mark }) {
		t.Errorf("the re-run drew the view seed again: %+v", q.dirSeed)
	}
	e.k.Run(e.k.Now() + simkernel.Minute)
	if s.host(client).cp == nil {
		t.Fatal("the client did not join")
	}
}

// TestNodeZeroHedgeNotAWin: a hedged lookup that reaches a directory after
// node 0 has claimed the query is not counted as a hedge win; one that
// reaches it first is.
func TestNodeZeroHedgeNotAWin(t *testing.T) {
	e, _ := nodeZeroEnv(t, 95, func(c *Config) { c.Adaptive = true })
	s := e.sys
	site := e.cfg.Sites[0]
	key := s.ks.KeyForWebsiteID(s.widBySite[site], 0, 0)
	lookup := func(member int, hedgeFirst bool) int64 {
		wins := e.mets.Snapshot(e.k.Now()).HedgeWins
		q := s.newQuery()
		s.qid++
		q.ID, q.Origin, q.Site, q.Ref, q.NewClient = s.qid, s.PoolNode(0, 0, member), site, e.obj(0, 3), true
		for _, hedged := range []bool{hedgeFirst, !hedgeFirst} { // sent at once, delivered in order
			s.sendQuery(q.Origin, 0, simnet.CatQuery, bytesQueryCtl, s.newRoutedMsg(key, q.Origin, q, hedged))
		}
		s.unref(q)
		e.k.Run(e.k.Now() + simkernel.Minute)
		return e.mets.Snapshot(e.k.Now()).HedgeWins - wins
	}
	if got := lookup(0, true); got != 1 {
		t.Fatalf("premise: a hedge that reached node 0 first counted %d wins, want 1", got)
	}
	if got := lookup(1, false); got != 0 {
		t.Fatalf("a hedge that reached node 0 after it claimed the query counted %d wins, want 0", got)
	}
}
