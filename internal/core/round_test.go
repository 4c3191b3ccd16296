package core

import (
	"fmt"
	"strings"
	"testing"

	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/trace"
)

// joinLog records when each host joined its content overlay and which
// host joined each overlay first.
type joinLog struct {
	at    map[simnet.NodeID]simkernel.Time
	first map[string]simnet.NodeID // by site and locality
}

func (j *joinLog) Record(r trace.Record) {
	if r.Kind == trace.Joined {
		j.at[r.Node] = r.At
		overlay := fmt.Sprint(r.Str, r.Loc)
		if _, ok := j.first[overlay]; !ok {
			j.first[overlay] = r.Node
		}
	}
}

func (j *joinLog) isFirst(addr simnet.NodeID) bool {
	for _, a := range j.first {
		if a == addr {
			return true
		}
	}
	return false
}

// checkCadence: sends are one period apart, the first comes within one
// period of the join (skipped when first is false) and none is missing
// before the end.
func checkCadence(what string, sends []simkernel.Time, join, end, period simkernel.Time, first bool) error {
	if len(sends) == 0 {
		return fmt.Errorf("no %s sent", what)
	}
	if first && sends[0]-join >= period {
		return fmt.Errorf("first %s %s after the join, period %s", what, sends[0]-join, period)
	}
	for i := 1; i < len(sends); i++ {
		if gap := sends[i] - sends[i-1]; gap != period {
			return fmt.Errorf("%s #%d came %s after the previous one, period %s", what, i, gap, period)
		}
	}
	if last := sends[len(sends)-1]; end-last > period {
		return fmt.Errorf("last %s at %s, %s before the end, period %s", what, last, end-last, period)
	}
	return nil
}

// TestRoundPeriods: one ticker per content peer runs the gossip half every
// TGossip and the keepalive half every TKeepalive, for equal periods and
// for either one nested in the other. After its join every member sends
// exactly one gossip per TGossip and one keepalive per TKeepalive (an
// overlay's first member joins with an empty view, which fills only once
// another member gossips to it, so its first gossip may come later), and
// each half's messages on the wire are exactly its sends' requests and
// answers. With equal periods, the kernel's periodic firings are the
// member-rounds: one per member per period, within each join's first
// partial period.
func TestRoundPeriods(t *testing.T) {
	for _, c := range []struct{ gossip, keepalive simkernel.Time }{
		{5 * simkernel.Minute, 5 * simkernel.Minute},
		{5 * simkernel.Minute, simkernel.Minute},
		{30 * simkernel.Second, simkernel.Hour},
	} {
		t.Run(fmt.Sprintf("%s-%s", c.gossip, c.keepalive), func(t *testing.T) {
			e := newTestEnv(t, 61, func(cfg *Config) { cfg.TGossip, cfg.TKeepalive = c.gossip, c.keepalive })
			s := e.sys
			joins := &joinLog{at: map[simnet.NodeID]simkernel.Time{}, first: map[string]simnet.NodeID{}}
			s.tracer = joins
			gossips := map[simnet.NodeID][]simkernel.Time{}
			keepalives := map[simnet.NodeID][]simkernel.Time{}
			rounds := 0
			s.roundFn = func(a uint64) {
				h := s.hosts[a]
				rounds++
				s.round(h)
				if h.has(hfAwaitGossip) {
					gossips[h.addr] = append(gossips[h.addr], e.k.Now())
				}
				if h.has(hfAwaitKeepalive) {
					keepalives[h.addr] = append(keepalives[h.addr], e.k.Now())
				}
			}
			// Directory ticks off: the periodic firings left are the rounds.
			e.stopAllTimers()
			periodic0 := e.k.PeriodicFired()
			for si := range 2 {
				for loc := range 3 {
					for m := range 5 {
						e.submitAt(simkernel.Time(1+si*15+loc*5+m)*simkernel.Second, si, loc, m, m)
					}
				}
			}
			end := 2 * simkernel.Hour
			e.k.Run(end)

			if len(joins.at) != 30 {
				t.Fatalf("%d of 30 clients joined", len(joins.at))
			}
			sentG, sentK := 0, 0
			for addr, join := range joins.at {
				if err := checkCadence("gossip", gossips[addr], join, end, c.gossip, !joins.isFirst(addr)); err != nil {
					t.Errorf("member %d: %v", addr, err)
				}
				if err := checkCadence("keepalive", keepalives[addr], join, end, c.keepalive, true); err != nil {
					t.Errorf("member %d: %v", addr, err)
				}
				sentG += len(gossips[addr])
				sentK += len(keepalives[addr])
			}
			rep := e.mets.Snapshot(end)
			if got := sentIn(rep, simnet.CatGossip); got != int64(2*sentG) {
				t.Errorf("%d gossip messages for %d exchanges", got, sentG)
			}
			if got := sentIn(rep, simnet.CatKeepalive); got != int64(2*sentK) {
				t.Errorf("%d keepalive messages for %d probes", got, sentK)
			}

			periodic := int(e.k.PeriodicFired() - periodic0)
			if periodic != rounds {
				t.Errorf("%d periodic firings, %d rounds", periodic, rounds)
			}
			if c.gossip == c.keepalive {
				lo, hi := 0, 0
				for _, join := range joins.at {
					full := int((end - join) / c.gossip)
					lo, hi = lo+full, hi+full+1
				}
				if periodic < lo || periodic > hi {
					t.Errorf("%d periodic firings, want the member-rounds: %d to %d", periodic, lo, hi)
				}
			}
		})
	}
}

// TestAuditRoundInvariant: the auditor holds every content peer to one
// running round and a deadline armed exactly while an await is open, and
// reports each way of breaking it.
func TestAuditRoundInvariant(t *testing.T) {
	e, member := dispatchEnv(t)
	s := e.sys
	if r := s.Audit(); len(r.Violations) > 0 {
		t.Fatalf("audit at steady state: %v", r.Violations)
	}
	s.round(member)
	if r := s.Audit(); len(r.Violations) > 0 {
		t.Fatalf("audit mid-round: %v", r.Violations)
	}
	// Event by event until the last answer: it revokes the deadline.
	for member.has(hfAwait) {
		next, _ := e.k.NextEvent()
		e.k.Run(next)
	}
	if member.deadline.Active() {
		t.Fatal("the round's last answer left its deadline armed")
	}
	if r := s.Audit(); len(r.Violations) > 0 {
		t.Fatalf("audit after the answers: %v", r.Violations)
	}

	expect := func(what, prefix string, breakIt, mend func()) {
		t.Helper()
		breakIt()
		r := s.Audit()
		if len(r.Violations) != 1 || !strings.HasPrefix(r.Violations[0], prefix) {
			t.Fatalf("%s: audit reported %v, want one %q line", what, r.Violations, prefix)
		}
		mend()
		if r := s.Audit(); len(r.Violations) > 0 {
			t.Fatalf("%s, mended: %v", what, r.Violations)
		}
	}
	expect("an await with no deadline", "timers: host", func() { member.flags |= hfAwaitGossip },
		func() { member.flags &^= hfAwait })
	expect("a deadline with no await", "timers: host", func() {
		member.deadline = e.k.After(simkernel.Hour, func() { t.Error("stray deadline fired") })
	}, func() { member.deadline.Cancel() })
	expect("a content peer without its round", "timers: content peer", func() { member.round.Stop() },
		func() { s.startRound(member) })
	// A crash mid-round drops the awaits with the deadline.
	s.round(member)
	s.FailPeer(member.addr)
	if r := s.Audit(); len(r.Violations) > 0 {
		t.Fatalf("audit after a crash mid-round: %v", r.Violations)
	}
	expect("a dead host with an await", "timers: dead host", func() { member.flags |= hfAwaitKeepalive },
		func() { member.flags &^= hfAwait })
}

// TestLateAnswerTimesOut: the round's one deadline falls at the later of
// its halves' timeouts, so an answer to the earlier half can arrive after
// that half's own timeout with the deadline still pending. Such an answer
// is late: the half times out as on a timer of its own (the keepalive
// starts the §5.2 replacement, the gossip partner leaves the view), while
// an answer inside its timeout does nothing of the kind.
func TestLateAnswerTimesOut(t *testing.T) {
	for _, c := range []struct {
		half hostFlag
		late bool
	}{{hfAwaitKeepalive, false}, {hfAwaitKeepalive, true}, {hfAwaitGossip, false}, {hfAwaitGossip, true}} {
		e, member := dispatchEnv(t)
		s := e.sys
		s.round(member)
		target := simnet.NodeID(member.gossipTarget)
		if !member.has(hfAwaitGossip) || !member.has(hfAwaitKeepalive) {
			t.Fatal("premise: the round did not send both halves")
		}
		// Make c.half the earlier one, its timeout just passed or not yet.
		member.flags &^= hfKeepaliveFirst
		if c.half == hfAwaitKeepalive {
			member.flags |= hfKeepaliveFirst
		}
		member.firstDue = e.k.Now() + 1
		if c.late {
			member.firstDue = e.k.Now()
		}
		if c.half == hfAwaitKeepalive {
			detected := &kindCount{kind: trace.DirFailureDetected}
			s.tracer = detected
			s.handleKeepaliveAck(member)
			s.tracer = nil
			if (detected.n == 1) != c.late {
				t.Errorf("late=%v: keepalive ack detected %d directory failures", c.late, detected.n)
			}
		} else {
			if !member.cp.View().Contains(target) {
				t.Fatal("premise: the gossip partner is not in the view")
			}
			s.answered(member, hfAwaitGossip) // the reply's first step
			if dropped := !member.cp.View().Contains(target); dropped != c.late {
				t.Errorf("late=%v: gossip reply dropped the partner: %v", c.late, dropped)
			}
		}
		if !member.deadline.Active() || member.has(c.half) {
			t.Errorf("late=%v: after one answer the deadline is armed=%v and the half still awaited=%v",
				c.late, member.deadline.Active(), member.has(c.half))
		}
		e.k.Run(e.k.Now() + 2*simkernel.Second)
	}
}

// kindCount counts the trace records of one kind.
type kindCount struct {
	kind trace.Kind
	n    int
}

func (k *kindCount) Record(r trace.Record) {
	if r.Kind == k.kind {
		k.n++
	}
}

// TestConfigRoundPeriods: Config.Validate refuses gossip and keepalive
// periods of which the longer is not a whole multiple of the shorter, or the
// shorter is below the longest failure-detection timeout.
func TestConfigRoundPeriods(t *testing.T) {
	for _, c := range []struct {
		gossip, keepalive simkernel.Time
		ok                bool
	}{
		{5 * simkernel.Minute, 5 * simkernel.Minute, true},
		{5 * simkernel.Minute, simkernel.Minute, true},
		{30 * simkernel.Second, simkernel.Hour, true},
		{5 * simkernel.Minute, 0, true}, // the keepalive period defaults to the gossip period
		{3 * simkernel.Minute, 2 * simkernel.Minute, false},
		{2 * simkernel.Minute, 3 * simkernel.Minute, false},
		{5 * simkernel.Second, simkernel.Minute, false}, // a round would drop an await still in time
		{simkernel.Minute, 5 * simkernel.Second, false},
		{10 * simkernel.Second, simkernel.Minute, true},
	} {
		cfg := validatable()
		cfg.TGossip, cfg.TKeepalive = c.gossip, c.keepalive
		if err := cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("periods %s/%s: Validate() = %v, want ok=%v", c.gossip, c.keepalive, err, c.ok)
		}
	}
}

// validatable is the default config with empty pools, which Validate accepts.
func validatable() Config {
	cfg := DefaultConfig()
	cfg.PoolSizes = make([][]int, cfg.ActiveSites)
	for i := range cfg.PoolSizes {
		cfg.PoolSizes[i] = make([]int, cfg.Localities)
	}
	return cfg
}

// TestConfigRefusesNegatives: a negative keepalive period is refused rather
// than run as the default; 0 keeps its default meaning.
func TestConfigRefusesNegatives(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Config)
		ok   bool
	}{
		{"zero keepalive period", func(c *Config) { c.TKeepalive = 0 }, true},
		{"negative keepalive period", func(c *Config) { c.TKeepalive = -simkernel.Minute }, false},
	} {
		cfg := validatable()
		c.edit(&cfg)
		if err := cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
