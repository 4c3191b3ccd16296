package core

import (
	"testing"
	"unsafe"

	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// dispatchEnv builds a small system with a two-member content overlay in
// steady state: both members hold content, gossip regularly, and send
// keepalives to their directory. This is the state the control-plane
// dispatch loop spends a simulated day in.
func dispatchEnv(t testing.TB) (e *testEnv, member *host) {
	e = newTestEnv(t, 88, nil)
	e.submitAt(simkernel.Second, 0, 0, 0, 3)
	e.submitAt(2*simkernel.Second, 0, 0, 1, 5)
	// Several gossip/keepalive periods (2 min each) so views, summaries and
	// the directory index settle.
	e.k.Run(20 * simkernel.Minute)
	member = e.sys.host(e.sys.PoolNode(0, 0, 0))
	if member.cp == nil {
		t.Fatal("member did not join")
	}
	if member.cp.View().Len() == 0 {
		t.Fatal("member view empty; gossip cannot run")
	}
	if !member.cp.Dir().Known || member.cp.Dir().Addr == member.addr {
		t.Fatal("member has no remote directory; keepalive cannot run")
	}
	return e, member
}

// dispatchRound drives one full round of the member — its gossip half
// (request → reply → merge) and its keepalive half (probe → ack) — through
// the simulated network, including the deadline armed and revoked along
// the way. The member's content changes first — an object stored or, every
// other round, removed again — so the gossip half publishes a new summary,
// on the delta and the rebuild path in turn.
func dispatchRound(e *testEnv, member *host) {
	if ref := e.sys.in.RefFor(0, 7); member.cp.Has(ref) {
		member.cp.RemoveObject(ref)
	} else {
		member.cp.AddObject(ref)
	}
	e.sys.round(member)
	if !member.has(hfAwaitGossip) || !member.has(hfAwaitKeepalive) || !member.deadline.Active() {
		panic("the round did not send both halves and arm its deadline")
	}
	// 2 simulated seconds cover both round trips (intra-locality RTTs are
	// tens of milliseconds); other hosts' tickers landing in the window run
	// the same steady-state paths.
	e.k.Run(e.k.Now() + 2*simkernel.Second)
}

// TestDispatchLoopAllocs is the alloc gate for the control plane: at
// steady state a complete round — gossip and keepalive halves, the await
// bits and the one AfterArg deadline in the host record, pooled envelopes
// and subset buffers, zero-size probe payloads, the directory's
// slot-hinted keepalive, delivery, merge, ack — allocate nothing, and
// neither does the summary the round publishes after a content change: the
// block its predecessor's last holder gave back is overwritten.
func TestDispatchLoopAllocs(t *testing.T) {
	e, member := dispatchEnv(t)
	// Warm the pools: envelopes, subset buffers, timer slots and the
	// network's message slab reach their steady-state capacity.
	for i := 0; i < 8; i++ {
		dispatchRound(e, member)
	}
	allocs := testing.AllocsPerRun(100, func() {
		dispatchRound(e, member)
	})
	if allocs != 0 {
		t.Fatalf("dispatch loop allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkDispatchLoop measures one steady-state round (gossip + keepalive)
// through the simulated network (the per-period control-plane cost of one
// content peer).
func BenchmarkDispatchLoop(b *testing.B) {
	e, member := dispatchEnv(b)
	for i := 0; i < 8; i++ {
		dispatchRound(e, member)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dispatchRound(e, member)
	}
}

// TestRejectSendAllocs: a gossip reject, like the standby's probe, ack and
// revoke, is zero-size — its sender is the envelope's Message.From — so a
// send→deliver boxes nothing. The endpoints' addresses lie beyond the 256
// small integers the runtime boxes for free, where a payload carrying the
// sender's NodeID costs one allocation per send.
func TestRejectSendAllocs(t *testing.T) {
	for _, size := range []uintptr{unsafe.Sizeof(gossipRejectMsg{}), unsafe.Sizeof(standbyProbeMsg{}),
		unsafe.Sizeof(standbyProbeAckMsg{}), unsafe.Sizeof(standbyRevokeMsg{})} {
		if size != 0 {
			t.Fatalf("a sender-only message is %d bytes, want 0", size)
		}
	}
	e := newTestEnv(t, 97, nil)
	e.stopAllTimers()
	s := e.sys
	var ends []simnet.NodeID
	for addr, h := range s.hosts {
		if h != nil && h.phase != phServer && h.dir == nil && addr >= 256 && len(ends) < 2 {
			ends = append(ends, simnet.NodeID(addr))
		}
	}
	a, b := ends[0], ends[1]
	op := func() {
		s.net.Send(a, b, simnet.CatGossip, bytesKeepalive, gossipRejectMsg{})
		s.net.Send(b, a, simnet.CatKeepalive, bytesKeepalive, standbyProbeMsg{})
		s.net.Send(a, b, simnet.CatKeepalive, bytesKeepalive, standbyProbeAckMsg{})
		s.net.Send(b, a, simnet.CatKeepalive, bytesKeepalive, standbyRevokeMsg{})
		e.k.Run(e.k.Now() + simkernel.Second)
	}
	op() // the network's message slab and the timer arena reach capacity
	if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
		t.Fatalf("a reject and the standby's probe, ack and revoke allocate %.1f allocs/op, want 0", allocs)
	}
}
