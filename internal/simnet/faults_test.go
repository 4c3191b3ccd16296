package simnet

import (
	"math/rand"
	"testing"

	"flowercdn/internal/simkernel"
	"flowercdn/internal/topology"
)

// faultNet builds a small network on a caller-owned kernel, mirroring
// allocNet but letting fault tests vary the kernel seed (which seeds the
// fault-decision streams via DeriveRNG).
func faultNet(tb testing.TB, k *simkernel.Kernel) *Network {
	tb.Helper()
	cfg := topology.DefaultConfig(1)
	cfg.TotalNodes = 300
	cfg.UniformNodes = 20
	topo, err := topology.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return New(k, topo)
}

// TestFaultPlaneDisabledAllocs is the alloc gate for the fault hook on the
// send hot path: with no fault config installed (nil or all-zero), Send must
// stay a single pointer check away from the pre-fault-plane code — zero
// allocations per send→deliver round trip, exactly like TestHotPathAllocs.
func TestFaultPlaneDisabledAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  *FaultConfig
	}{
		{"nil config", nil},
		{"zero config", &FaultConfig{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, k := allocNet(t)
			n.InstallFaults(tc.cfg)
			if n.Faults() != nil {
				t.Fatal("disabled fault config must not install")
			}
			delivered := 0
			n.Register(1, HandlerFunc(func(m Message) { delivered++ }))
			x := 0
			pl := allocPayload{p: &x}
			for i := 0; i < 64; i++ {
				n.Send(0, 1, CatQuery, 40, pl)
			}
			k.Run(k.Now() + simkernel.Minute)
			if avg := testing.AllocsPerRun(200, func() {
				n.Send(0, 1, CatQuery, 40, pl)
				k.Run(k.Now() + simkernel.Minute) // drain: delivery fires, slab slot freed
			}); avg != 0 {
				t.Fatalf("send+deliver with disabled faults allocates %.1f/op, want 0", avg)
			}
			if delivered == 0 {
				t.Fatal("nothing delivered; the measurement exercised no messages")
			}
		})
	}
}

// faultDropRun is one seeded lossy run: 500 sends through 30% loss + jitter,
// reporting deliveries, fault drops and the last arrival time.
func faultDropRun(tb testing.TB, seed int64) (int, uint64, simkernel.Time) {
	tb.Helper()
	k := simkernel.New(seed)
	n := faultNet(tb, k)
	n.InstallFaults(&FaultConfig{LossProb: 0.3, JitterProb: 0.5, JitterMaxMs: 80})
	delivered := 0
	var last simkernel.Time
	n.Register(1, HandlerFunc(func(m Message) { delivered++; last = k.Now() }))
	x := 0
	pl := allocPayload{p: &x}
	for i := 0; i < 500; i++ {
		n.Send(0, 1, CatQuery, 40, pl)
	}
	k.Run(k.Now() + simkernel.Minute)
	return delivered, n.FaultDropped(), last
}

// TestFaultDeterminism: the same seed yields identical fault decisions
// (drop counts and arrival times); a different seed yields different ones.
func TestFaultDeterminism(t *testing.T) {
	d1, f1, l1 := faultDropRun(t, 7)
	d2, f2, l2 := faultDropRun(t, 7)
	if d1 != d2 || f1 != f2 || l1 != l2 {
		t.Fatalf("same seed diverged: delivered %d/%d, dropped %d/%d, last %d/%d", d1, d2, f1, f2, l1, l2)
	}
	if f1 == 0 || d1 == 0 {
		t.Fatalf("degenerate run: delivered=%d dropped=%d", d1, f1)
	}
	if d1+int(f1) != 500 {
		t.Fatalf("accounting leak: delivered %d + dropped %d != 500 sends", d1, f1)
	}
	d3, f3, _ := faultDropRun(t, 8)
	if d1 == d3 && f1 == f3 {
		t.Fatal("different seeds produced identical fault outcomes")
	}
}

// TestDecideDrawOrderStable is the draw-order property test for the gray
// knobs: per-send stream consumption must be identical whether the new
// knobs (NodeDegrade, Flap, AsymLoss) are absent, zero-valued, or — for
// the schedule-only knobs — actively configured. Enabling a degrade
// window must never perturb the loss/jitter/spike draws of an existing
// scenario: identical drops, and extra latency related only by the
// degrade factor.
func TestDecideDrawOrderStable(t *testing.T) {
	base := &FaultConfig{
		LossProb:   0.1,
		JitterProb: 0.3, JitterMaxMs: 50,
		SpikeProb: 0.05, SpikeMs: 200,
		Partitions: []PartitionWindow{{Locality: 2, Start: simkernel.Minute, End: 2 * simkernel.Minute}},
	}
	zeroGray := &FaultConfig{
		LossProb:   base.LossProb,
		JitterProb: base.JitterProb, JitterMaxMs: base.JitterMaxMs,
		SpikeProb: base.SpikeProb, SpikeMs: base.SpikeMs,
		Partitions:  base.Partitions,
		NodeDegrade: []DegradeWindow{}, AsymLoss: []AsymLossRule{}, Flap: []FlapWindow{},
	}
	degraded := &FaultConfig{
		LossProb:   base.LossProb,
		JitterProb: base.JitterProb, JitterMaxMs: base.JitterMaxMs,
		SpikeProb: base.SpikeProb, SpikeMs: base.SpikeMs,
		Partitions: base.Partitions,
		NodeDegrade: []DegradeWindow{
			{Node: 3, Start: 0, End: simkernel.Hour, Factor: 8},
		},
		Flap: []FlapWindow{ // covers a locality the probed sends never touch
			{Locality: 2, Start: 0, End: simkernel.Hour, Period: simkernel.Minute, DownFor: simkernel.Second},
		},
	}
	const nLoc, nNodes = 4, 16
	pBase := compileFaults(base, nLoc, nNodes)
	pZero := compileFaults(zeroGray, nLoc, nNodes)
	pDeg := compileFaults(degraded, nLoc, nNodes)
	rBase := rand.New(rand.NewSource(42))
	rZero := rand.New(rand.NewSource(42))
	rDeg := rand.New(rand.NewSource(42))
	lat := 30 * simkernel.Millisecond
	for i := 0; i < 2000; i++ {
		from := NodeID(i % 8) // includes the degraded node 3
		srcLoc, dstLoc := i%2, (i+1)%2
		now := simkernel.Time(i) * simkernel.Second
		dB, eB := pBase.decide(rBase, from, srcLoc, dstLoc, lat, now)
		dZ, eZ := pZero.decide(rZero, from, srcLoc, dstLoc, lat, now)
		dD, eD := pDeg.decide(rDeg, from, srcLoc, dstLoc, lat, now)
		if dB != dZ || eB != eZ {
			t.Fatalf("send %d: zero-valued gray knobs changed the decision: (%v,%v) vs (%v,%v)", i, dB, eB, dZ, eZ)
		}
		if dB != dD {
			t.Fatalf("send %d: degrade schedule changed a drop decision: %v vs %v", i, dB, dD)
		}
		if from == 3 {
			if want := eB + simkernel.Time(7*float64(lat+eB)); !dB && eD != want {
				t.Fatalf("send %d: degraded extra = %v, want %v (base %v)", i, eD, want, eB)
			}
		} else if eB != eD {
			t.Fatalf("send %d: degrade schedule perturbed an unrelated sender's latency: %v vs %v", i, eB, eD)
		}
		// The streams must stay in lockstep after every send: equal next
		// draws prove equal per-send consumption regardless of outcomes.
		if s1, s2, s3 := rBase.Int63(), rZero.Int63(), rDeg.Int63(); s1 != s2 || s1 != s3 {
			t.Fatalf("send %d: stream consumption diverged (%d / %d / %d)", i, s1, s2, s3)
		}
	}
}

// TestOverlappingPartitionWindows pins the compiled schedule: overlapping,
// nested, adjacent and inverted windows for one locality must give the same
// cut decisions as the reference linear scan at every probe instant, and
// HealTime equal to the true last End.
func TestOverlappingPartitionWindows(t *testing.T) {
	cfg := &FaultConfig{Partitions: []PartitionWindow{
		{Locality: 0, Start: 60 * simkernel.Second, End: 150 * simkernel.Second},
		{Locality: 0, Start: 90 * simkernel.Second, End: 120 * simkernel.Second},  // nested
		{Locality: 0, Start: 140 * simkernel.Second, End: 200 * simkernel.Second}, // overlapping tail
		{Locality: 0, Start: 200 * simkernel.Second, End: 220 * simkernel.Second}, // adjacent
		{Locality: 0, Start: 300 * simkernel.Second, End: 250 * simkernel.Second}, // inverted: dropped
		{Locality: 1, Start: 10 * simkernel.Second, End: 20 * simkernel.Second},
	}}
	plan := compileFaults(cfg, 3, 4)
	for now := simkernel.Time(0); now < 400*simkernel.Second; now += simkernel.Second / 2 {
		for loc := 0; loc < 3; loc++ {
			// The reference scan ignores the inverted window too (Start >= End
			// can never satisfy now >= Start && now < End).
			if got, want := plan.cut(loc, now), cfg.Partitioned(loc, now); got != want {
				t.Fatalf("loc %d at %v: compiled cut=%v, reference=%v", loc, now, got, want)
			}
		}
	}
	if heal := cfg.HealTime(0); heal != 220*simkernel.Second {
		t.Fatalf("HealTime(0) = %v, want 220s (end of last overlapping window)", heal)
	}
}

// TestFaultPlanePartitionedAllocs extends the alloc gate to the faulted
// hot path: with a partition schedule installed, the per-send window check
// rides the compiled per-locality window list and must stay allocation-free.
func TestFaultPlanePartitionedAllocs(t *testing.T) {
	n, k := allocNet(t)
	n.InstallFaults(&FaultConfig{Partitions: []PartitionWindow{
		{Locality: 1, Start: simkernel.Hour, End: 2 * simkernel.Hour},
		{Locality: 1, Start: 90 * simkernel.Minute, End: 3 * simkernel.Hour},
	}})
	delivered := 0
	n.Register(1, HandlerFunc(func(m Message) { delivered++ }))
	x := 0
	pl := allocPayload{p: &x}
	for i := 0; i < 64; i++ {
		n.Send(0, 1, CatQuery, 40, pl)
	}
	k.Run(k.Now() + simkernel.Minute)
	if avg := testing.AllocsPerRun(200, func() {
		n.Send(0, 1, CatQuery, 40, pl)
		k.Run(k.Now() + simkernel.Minute)
	}); avg != 0 {
		t.Fatalf("send+deliver with partitions installed allocates %.1f/op, want 0", avg)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered; the measurement exercised no messages")
	}
}

// TestNodeDegradeSlowsSender: a degraded node's outbound messages arrive
// Factor× later during its window and at normal latency outside it, while
// its inbound traffic is untouched.
func TestNodeDegradeSlowsSender(t *testing.T) {
	n, k := allocNet(t)
	lat := n.Latency(0, 1)
	n.InstallFaults(&FaultConfig{NodeDegrade: []DegradeWindow{
		{Node: 0, Start: simkernel.Minute, End: 2 * simkernel.Minute, Factor: 4},
	}})
	var arrivals []simkernel.Time
	n.Register(1, HandlerFunc(func(m Message) { arrivals = append(arrivals, k.Now()) }))
	n.Register(0, HandlerFunc(func(m Message) { arrivals = append(arrivals, k.Now()) }))

	n.Send(0, 1, CatQuery, 10, allocPayload{}) // before the window: normal
	k.Run(simkernel.Minute + simkernel.Second)
	sent := k.Now()
	n.Send(0, 1, CatQuery, 10, allocPayload{}) // inside: 4× outbound latency
	n.Send(1, 0, CatQuery, 10, allocPayload{}) // inbound: untouched
	k.Run(2 * simkernel.Minute)
	sent2 := k.Now()
	n.Send(0, 1, CatQuery, 10, allocPayload{}) // after: normal again
	k.Run(3 * simkernel.Minute)

	if len(arrivals) != 4 {
		t.Fatalf("got %d deliveries, want 4", len(arrivals))
	}
	if got, want := arrivals[0], lat; got != want {
		t.Fatalf("pre-window arrival at %v, want %v", got, want)
	}
	if got, want := arrivals[1], sent+n.Latency(1, 0); got != want {
		t.Fatalf("inbound arrival at %v, want %v (inbound must not degrade)", got, want)
	}
	if got, want := arrivals[2], sent+4*lat; got != want {
		t.Fatalf("degraded arrival at %v, want %v (4× link latency)", got, want)
	}
	if got, want := arrivals[3], sent2+lat; got != want {
		t.Fatalf("post-window arrival at %v, want %v", got, want)
	}
}

// TestAsymLossOneDirection: an asymmetric rule drops traffic only in its
// configured direction; the reverse path delivers everything.
func TestAsymLossOneDirection(t *testing.T) {
	k := simkernel.New(3)
	n := faultNet(t, k)
	var fwd, rev NodeID // fwd in locality 0, rev in locality 1
	foundF, foundR := false, false
	for id := NodeID(0); id < 300; id++ {
		switch {
		case n.topo.LocalityOf(id) == 0 && !foundF:
			fwd, foundF = id, true
		case n.topo.LocalityOf(id) == 1 && !foundR:
			rev, foundR = id, true
		}
	}
	if !foundF || !foundR {
		t.Fatal("topology lacks two localities")
	}
	n.InstallFaults(&FaultConfig{AsymLoss: []AsymLossRule{{FromLoc: 0, ToLoc: 1, Prob: 0.5}}})
	got := map[NodeID]int{}
	h := HandlerFunc(func(m Message) { got[m.To]++ })
	n.Register(fwd, h)
	n.Register(rev, h)
	for i := 0; i < 400; i++ {
		n.Send(fwd, rev, CatQuery, 10, allocPayload{})
		n.Send(rev, fwd, CatQuery, 10, allocPayload{})
	}
	k.Run(k.Now() + simkernel.Minute)
	if got[fwd] != 400 {
		t.Fatalf("reverse direction lost traffic: %d/400 delivered", got[fwd])
	}
	if got[rev] >= 300 || got[rev] == 0 {
		t.Fatalf("forward direction delivered %d/400, want roughly half under 50%% loss", got[rev])
	}
	if want := uint64(400 - got[rev]); n.FaultDropped() != want {
		t.Fatalf("FaultDropped = %d, want %d", n.FaultDropped(), want)
	}
}

// TestFlapWindowCycles: during a flap window the link is down for DownFor
// of every Period and up for the rest; before and after the window it
// always flows.
func TestFlapWindowCycles(t *testing.T) {
	n, k := allocNet(t)
	var inside, outside NodeID
	foundIn, foundOut := false, false
	for id := NodeID(0); id < 300; id++ {
		switch {
		case n.topo.LocalityOf(id) == 0 && !foundIn:
			inside, foundIn = id, true
		case n.topo.LocalityOf(id) != 0 && !foundOut:
			outside, foundOut = id, true
		}
	}
	if !foundIn || !foundOut {
		t.Fatal("topology has no usable locality split")
	}
	n.InstallFaults(&FaultConfig{Flap: []FlapWindow{{
		Locality: 0,
		Start:    simkernel.Minute, End: 3 * simkernel.Minute,
		Period: 20 * simkernel.Second, DownFor: 5 * simkernel.Second,
	}}})
	delivered := 0
	n.Register(outside, HandlerFunc(func(m Message) { delivered++ }))

	probe := func(at simkernel.Time) bool {
		k.Run(at)
		before := delivered
		n.Send(inside, outside, CatQuery, 10, allocPayload{})
		k.Run(at + 30*simkernel.Second)
		return delivered > before
	}
	if !probe(10 * simkernel.Second) {
		t.Fatal("pre-window send dropped")
	}
	if probe(simkernel.Minute + 2*simkernel.Second) {
		t.Fatal("send in a down-phase (2s into the period) delivered")
	}
	if !probe(simkernel.Minute + 50*simkernel.Second) {
		t.Fatal("send in an up-phase (10s into the period) dropped")
	}
	if probe(2*simkernel.Minute + 43*simkernel.Second) {
		t.Fatal("send in a later down-phase (3s into the period) delivered")
	}
	if !probe(3*simkernel.Minute + 10*simkernel.Second) {
		t.Fatal("post-window send dropped")
	}
}

// TestPartitionWindow: cross-locality messages with one endpoint inside a
// partitioned locality are dropped during the window and flow before and
// after it; intra-locality traffic is never cut.
func TestPartitionWindow(t *testing.T) {
	n, k := allocNet(t)
	// Pick two nodes inside locality 0 and one outside it.
	var inside, inside2, outside NodeID
	foundIn, foundIn2, foundOut := false, false, false
	for id := NodeID(0); id < 300; id++ {
		switch {
		case n.topo.LocalityOf(id) == 0 && !foundIn:
			inside, foundIn = id, true
		case n.topo.LocalityOf(id) == 0 && !foundIn2:
			inside2, foundIn2 = id, true
		case n.topo.LocalityOf(id) != 0 && !foundOut:
			outside, foundOut = id, true
		}
	}
	if !foundIn || !foundIn2 || !foundOut {
		t.Fatal("topology has no usable locality split")
	}
	n.InstallFaults(&FaultConfig{Partitions: []PartitionWindow{
		{Locality: 0, Start: simkernel.Minute, End: 2 * simkernel.Minute},
	}})
	got := map[NodeID]int{}
	h := HandlerFunc(func(m Message) { got[m.To]++ })
	n.Register(inside, h)
	n.Register(inside2, h)
	n.Register(outside, h)

	send := func() { // one cross-partition pair each way plus one intra pair
		n.Send(inside, outside, CatQuery, 10, allocPayload{})
		n.Send(outside, inside, CatQuery, 10, allocPayload{})
		n.Send(inside, inside2, CatQuery, 10, allocPayload{})
	}
	send() // before the window: everything flows
	k.Run(simkernel.Minute)
	if got[outside] != 1 || got[inside] != 1 || got[inside2] != 1 {
		t.Fatalf("pre-window deliveries = %v, want 1 each", got)
	}
	k.Run(simkernel.Minute + simkernel.Second)
	send() // inside the window: only the intra-locality message survives
	k.Run(2 * simkernel.Minute)
	if got[outside] != 1 || got[inside] != 1 {
		t.Fatalf("cross-partition message delivered during window: %v", got)
	}
	if got[inside2] != 2 {
		t.Fatalf("intra-locality message cut by partition: %v", got)
	}
	k.Run(2*simkernel.Minute + simkernel.Second)
	send() // healed: everything flows again
	k.Run(3 * simkernel.Minute)
	if got[outside] != 2 || got[inside] != 2 || got[inside2] != 3 {
		t.Fatalf("post-heal deliveries = %v, want all through", got)
	}
	if n.FaultDropped() != 2 {
		t.Fatalf("FaultDropped = %d, want 2", n.FaultDropped())
	}
}

// TestOnDropSeesEveryLoss: the drop hook is called once per lost message at
// each of the three loss sites — dead sender, fault plane, dead or
// handler-less receiver — with that message's payload, so its calls equal
// Dropped() + FaultDropped() and, with the deliveries, account for every
// send. A send with the hook installed still allocates nothing.
func TestOnDropSeesEveryLoss(t *testing.T) {
	k := simkernel.New(3)
	n := faultNet(t, k)
	n.InstallFaults(&FaultConfig{LossProb: 0.3})
	delivered, lost := map[int]int{}, map[int]int{}
	n.OnDrop(func(payload any) { lost[*payload.(allocPayload).p]++ })
	n.Register(1, HandlerFunc(func(m Message) { delivered[*m.Payload.(allocPayload).p]++ }))
	n.Fail(2) // dead sender; node 3 has no handler, node 4 dies with messages in flight
	n.Register(4, HandlerFunc(func(m Message) { delivered[*m.Payload.(allocPayload).p]++ }))

	const sends = 800
	ids := make([]int, sends)
	for i := range ids {
		ids[i] = i
		from, to := NodeID(0), NodeID(1+i%4) // receivers 1 (alive), 2 (dead), 3 (no handler), 4 (dies)
		if i%5 == 0 {
			from = 2
		}
		n.Send(from, to, CatQuery, 40, allocPayload{p: &ids[i]})
	}
	n.Fail(4)
	k.Run(k.Now() + simkernel.Minute)

	if n.Dropped() == 0 || n.FaultDropped() == 0 || len(delivered) == 0 {
		t.Fatalf("the run missed a site: %d dead drops, %d fault drops, %d deliveries", n.Dropped(), n.FaultDropped(), len(delivered))
	}
	if got, want := uint64(len(lost)), n.Dropped()+n.FaultDropped(); got != want {
		t.Fatalf("hook saw %d payloads, network counts %d lost", got, want)
	}
	for i := range ids {
		if delivered[i]+lost[i] != 1 {
			t.Fatalf("message %d: delivered %d times, lost %d times", i, delivered[i], lost[i])
		}
	}

	x, calls := 0, 0
	pl := allocPayload{p: &x}
	n.OnDrop(func(any) { calls++ })
	for i := 0; i < 64; i++ {
		n.Send(0, 4, CatQuery, 40, pl)
	}
	k.Run(k.Now() + simkernel.Minute)
	if avg := testing.AllocsPerRun(200, func() {
		n.Send(0, 4, CatQuery, 40, pl) // lost in the fault plane or at the dead receiver
		n.Send(2, 1, CatQuery, 40, pl) // lost at the dead sender
		k.Run(k.Now() + simkernel.Minute)
	}); avg != 0 {
		t.Fatalf("a lost send with a hook installed allocates %.1f/op, want 0", avg)
	}
	if calls < 64+2*200 {
		t.Fatalf("hook ran %d times over %d lost sends", calls, 64+2*200)
	}
}
