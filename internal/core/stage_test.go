package core

import (
	"reflect"
	"testing"

	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/trace"
)

// startHeld starts pool member (0, loc, member)'s query for object obj the
// way Submit does, but keeps the entry point's reference to the record, so
// its stage can still be read once the query is done. The caller unrefs it.
func startHeld(e *testEnv, loc, member, obj int) *Query {
	s := e.sys
	h := s.host(s.PoolNode(0, loc, member))
	s.qid++
	q := s.newQuery()
	q.ID, q.Origin, q.OriginLoc, q.Site = s.qid, h.addr, h.overlayLocality(), e.cfg.Sites[0]
	q.Ref, q.Start, q.NewClient = e.obj(0, obj), e.k.Now(), h.cp == nil
	if h.cp != nil {
		s.startContentPeerQuery(h, q)
	} else {
		s.startNewClientQuery(h, q)
	}
	return q
}

// stageMoves runs the kernel one instant at a time until q is done (or a
// minute passes) and returns the stage moves it saw, in order, from open:
// every query starts there, and a local hit is done before its entry point
// returns.
func stageMoves(e *testEnv, q *Query) (moves [][2]queryStage) {
	last, until := qOpen, e.k.Now()+simkernel.Minute
	for {
		if q.stage != last {
			moves = append(moves, [2]queryStage{last, q.stage})
			last = q.stage
		}
		next, ok := e.k.NextEvent()
		if q.stage == qDone || !ok || next > until {
			return moves
		}
		e.k.Run(next)
	}
}

// TestQueryStageTransitions drives every move advance allows through the
// protocol path that makes it — open → served by the origin, by a content
// peer the directory redirected to and by a view contact's peer hit, served
// → done on delivery, open → done on a local hit — and checks that advance
// refuses, with a panic and before touching the record, every other move.
func TestQueryStageTransitions(t *testing.T) {
	e := newTestEnv(t, 31, func(c *Config) { c.TGossip, c.TKeepalive = 30*simkernel.Second, 30*simkernel.Second })
	s := e.sys
	seen := map[[2]queryStage]bool{}
	served := func(src string) int64 { return e.mets.Snapshot(e.k.Now()).BySource[src] }
	run := func(name string, loc, member, obj int, src string, viaDir bool, want ...[2]queryStage) {
		t.Helper()
		before := served(src)
		q := startHeld(e, loc, member, obj)
		moves := stageMoves(e, q)
		if !reflect.DeepEqual(moves, want) {
			t.Fatalf("%s: the query went through %v, want %v", name, moves, want)
		}
		if got := served(src) - before; got != 1 {
			t.Fatalf("%s: %d queries served from %s, want 1 (%v)", name, got, src, e.mets.Snapshot(e.k.Now()).BySource)
		}
		if (q.handlerDir != noNode) != viaDir {
			t.Fatalf("%s: handler directory %d, want one: %v", name, q.handlerDir, viaDir)
		}
		for _, m := range moves {
			seen[m] = true
		}
		s.unref(q)
		e.k.Run(e.k.Now() + 2*simkernel.Minute) // gossip spreads the new object
	}
	openServed, servedDone, openDone := [2]queryStage{qOpen, qServed}, [2]queryStage{qServed, qDone}, [2]queryStage{qOpen, qDone}

	// A new client of an empty overlay: D-ring → d(ws,0) → the origin.
	run("origin", 0, 0, 3, "server", true, openServed, servedDone)
	// A second new client: the directory redirects it to the first.
	run("redirect", 0, 1, 3, "peer", true, openServed, servedDone)
	// The second, a member now, has the object: a local hit.
	run("local hit", 0, 1, 3, "local", false, openDone)
	// The first fetches a new object from the origin (a view miss) …
	run("view miss", 0, 0, 4, "server", false, openServed, servedDone)
	// … which the second finds in its view's summaries: a peer hit.
	run("peer hit", 0, 1, 4, "peer", false, openServed, servedDone)

	stages := []queryStage{qOpen, qServed, qDone}
	for _, from := range stages {
		for _, to := range stages {
			if m := [2]queryStage{from, to}; m == openServed || m == servedDone || m == openDone {
				if !seen[m] {
					t.Errorf("no protocol path drove stage %d → %d", from, to)
				}
				continue
			}
			q := &Query{ID: 9, stage: from, handlerDir: noNode, remoteDir: noNode}
			before := *q
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("advance %d → %d did not panic", from, to)
					}
				}()
				q.advance(to)
			}()
			if !reflect.DeepEqual(*q, before) {
				t.Errorf("the refused move %d → %d changed the record", from, to)
			}
		}
	}
}

// tap stands in front of a host: it notes the forwarded queries and forward
// failures the host is handed and, with hold (holdFail) set, keeps the
// forwarded queries (forward failures) back instead of passing them on.
type tap struct {
	h        *host
	hold     bool
	holdFail bool
	got      *[]simnet.Message
}

func (w tap) HandleMessage(msg simnet.Message) {
	switch msg.Payload.(type) {
	case forwardedQueryMsg:
		*w.got = append(*w.got, msg)
		if w.hold {
			return
		}
	case forwardFailMsg:
		*w.got = append(*w.got, msg)
		if w.holdFail {
			return
		}
	}
	w.h.HandleMessage(msg)
}

// nodeLog keeps the trace records one node emits.
type nodeLog struct {
	node simnet.NodeID
	recs *[]trace.Record
}

func (l nodeLog) Record(r trace.Record) {
	if r.Node == l.node {
		*l.recs = append(*l.recs, r)
	}
}

// TestStaleForwardStaysRestricted: a summary-forwarded query that reaches
// the neighbour directory after the handler's sibling deadline fired — the
// handler has resumed and the record no longer names the neighbour — still
// runs Algorithm 3's restricted form there. The neighbour reports back with
// a forward failure; it does not claim the query, nor run the directory
// stages of its own, nor chain to the summary it holds. The forwarded flag
// travels with the copy for this reason: read off the record, it would say
// the copy is not forwarded.
func TestStaleForwardStaysRestricted(t *testing.T) {
	e := newTestEnv(t, 21, nil)
	s, site := e.sys, e.cfg.Sites[0]
	e.submitAt(simkernel.Second, 0, 0, 0, 3)
	e.k.Run(5 * simkernel.Second)
	// Neither a directory round nor a summary already on the wire may
	// refresh the summaries set below.
	e.stopAllTimers()
	e.k.Run(e.k.Now() + simkernel.Minute)
	dir := func(loc int) *host {
		addr, _ := s.DirectoryAddr(site, loc)
		return s.host(addr)
	}
	d0, d1, d2 := dir(0), dir(1), dir(2)
	// Stale summaries: d(ws,1) believes d(ws,0) holds object 9, and d(ws,0)
	// believes d(ws,2) does. Nobody does.
	claim := func(at, of *host) {
		fake := of.dir.BuildSummary().Clone()
		fake.Add(e.objKey(0, 9))
		at.dir.UpdateNeighborSummary(of.dir.Key(), of.dir.Locality(), fake)
	}
	claim(d1, d0)
	claim(d0, d2)
	var atD0, atD1 []simnet.Message
	s.net.Register(d0.addr, tap{h: d0, hold: true, got: &atD0})
	s.net.Register(d1.addr, tap{h: d1, got: &atD1})

	// A new client of locality 1 asks for object 9: d(ws,1) claims it and
	// forwards it to d(ws,0), where the tap holds the copy back.
	q := startHeld(e, 1, 0, 9)
	defer s.unref(q)
	until := e.k.Now() + 10*simkernel.Second
	for len(atD0) == 0 && e.k.Now() < until {
		next, _ := e.k.NextEvent()
		e.k.Run(next)
	}
	if len(atD0) != 1 || q.remoteDir != d0.addr || q.handlerDir != d1.addr {
		t.Fatalf("premise: d(ws,0) was handed %d forwarded queries, the record names neighbour %d and handler %d",
			len(atD0), q.remoteDir, q.handlerDir)
	}
	late := atD0[0]
	if f, ok := late.Payload.(forwardedQueryMsg); !ok || f.Q != q || late.From != d1.addr {
		t.Fatalf("premise: d(ws,0) was handed %T from %d", late.Payload, late.From)
	}
	for q.remoteDir == d0.addr {
		next, _ := e.k.NextEvent()
		e.k.Run(next) // the sibling deadline fires; d(ws,1) resumes without d(ws,0)
	}
	if q.remoteDir != noNode || q.stage == qDone {
		t.Fatalf("premise: after the sibling deadline the record names neighbour %d, stage %d", q.remoteDir, q.stage)
	}

	// The copy arrives late.
	var recs []trace.Record
	s.tracer = nodeLog{node: d0.addr, recs: &recs}
	s.net.Register(d0.addr, d0)
	d0.HandleMessage(late)
	e.k.Run(e.k.Now() + simkernel.Minute)

	for _, r := range recs {
		switch r.Kind {
		case trace.DirProcess, trace.ForwardedToSibling, trace.ServerFetch:
			if r.Query == q.ID {
				t.Errorf("the late copy ran the full Algorithm 3 at d(ws,0): a %s record", r.Kind)
			}
		}
	}
	failed := false
	for _, m := range atD1 {
		if f, ok := m.Payload.(forwardFailMsg); ok && f.Q == q && m.From == d0.addr {
			failed = true
		}
	}
	if !failed {
		t.Error("d(ws,0) did not report the forward failure back to d(ws,1)")
	}
	if q.handlerDir != d1.addr {
		t.Errorf("the late copy moved the handler from %d to %d", d1.addr, q.handlerDir)
	}
	if q.stage != qDone {
		t.Errorf("the query ended at stage %d, not done", q.stage)
	}
}

// TestLateForwardFailIgnored: a forward failure that reaches the handler
// directory after its sibling deadline fired is stale — the handler has
// resumed without that neighbour and forwarded to the next one. It must
// neither settle the await armed since nor run Algorithm 3 a second time.
func TestLateForwardFailIgnored(t *testing.T) {
	e := newTestEnv(t, 21, nil)
	s, site := e.sys, e.cfg.Sites[0]
	e.submitAt(simkernel.Second, 0, 0, 0, 3)
	e.k.Run(5 * simkernel.Second)
	e.stopAllTimers()
	e.k.Run(e.k.Now() + simkernel.Minute)
	dir := func(loc int) *host {
		addr, _ := s.DirectoryAddr(site, loc)
		return s.host(addr)
	}
	d0, d1, d2 := dir(0), dir(1), dir(2)
	// Stale summaries: d(ws,1) believes both neighbours hold object 9.
	// Nobody does, so each forward comes back as a failure.
	for _, of := range []*host{d0, d2} {
		fake := of.dir.BuildSummary().Clone()
		fake.Add(e.objKey(0, 9))
		d1.dir.UpdateNeighborSummary(of.dir.Key(), of.dir.Locality(), fake)
	}
	var atD1 []simnet.Message
	s.net.Register(d1.addr, tap{h: d1, holdFail: true, got: &atD1})
	step := func(until simkernel.Time, more func() bool) {
		for more() && e.k.Now() < until {
			next, _ := e.k.NextEvent()
			e.k.Run(next)
		}
	}

	// A new client of locality 1 asks for object 9: d(ws,1) forwards it to
	// the first neighbour, whose failure the tap holds back.
	q := startHeld(e, 1, 0, 9)
	defer s.unref(q)
	step(e.k.Now()+10*simkernel.Second, func() bool { return len(atD1) == 0 })
	first := q.remoteDir
	if len(atD1) != 1 || q.handlerDir != d1.addr || (first != d0.addr && first != d2.addr) {
		t.Fatalf("premise: d(ws,1) was handed %d forward failures, the record names neighbour %d and handler %d",
			len(atD1), first, q.handlerDir)
	}
	late := atD1[0]
	if f, ok := late.Payload.(forwardFailMsg); !ok || f.Q != q || late.From != first {
		t.Fatalf("premise: d(ws,1) was handed %T from %d", late.Payload, late.From)
	}
	// The sibling deadline fires; d(ws,1) resumes and forwards to the other.
	step(e.k.Now()+10*simkernel.Second, func() bool { return q.remoteDir == first })
	if q.remoteDir == first || q.remoteDir == noNode || q.awaitKind != awaitSibling || q.stage != qOpen {
		t.Fatalf("premise: after the sibling deadline the record names neighbour %d, await %d, stage %d",
			q.remoteDir, q.awaitKind, q.stage)
	}
	second, tok := q.remoteDir, q.awaitTok

	// The first neighbour's failure arrives late.
	var recs []trace.Record
	s.tracer = nodeLog{node: d1.addr, recs: &recs}
	d1.HandleMessage(late)

	if q.awaitKind != awaitSibling || q.awaitTok != tok || s.pool.awaiting[q.awaitSlot] != q {
		t.Errorf("the late failure settled the await on neighbour %d: now kind %d token %d (was %d)",
			second, q.awaitKind, q.awaitTok, tok)
	}
	if q.remoteDir != second {
		t.Errorf("the late failure moved the record's neighbour from %d to %d", second, q.remoteDir)
	}
	for _, r := range recs {
		if r.Kind == trace.DirProcess && r.Query == q.ID {
			t.Error("the late failure ran Algorithm 3 again at d(ws,1)")
		}
	}
}
