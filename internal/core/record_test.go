package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"flowercdn/internal/simkernel"
)

// TestHostRecordSize is the layout gate beside the alloc gates: every
// potential client owns one host record for the whole run, so a field added
// inline is paid 100,000 times at the pop100k preset. Rarely-used state
// belongs behind host.role or host.rare.
func TestHostRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(host{}); got > 112 {
		t.Fatalf("host record is %d bytes, want <= 112", got)
	}
}

// timerFields finds, by reflection, every timer the record holds — each
// TimerHandle or Ticker field of the host, its role state and its rare state
// — so the tests below notice a timer that host.timers() does not list.
func timerFields(h *host) map[string]*simkernel.TimerHandle {
	found := map[string]*simkernel.TimerHandle{}
	handle := reflect.TypeOf(simkernel.TimerHandle{})
	for _, part := range []any{h, h.role, h.rare} {
		v := reflect.ValueOf(part).Elem()
		for i := 0; v.IsValid() && i < v.NumField(); i++ { // invalid: state never allocated
			if f := v.Field(i); f.Type().ConvertibleTo(handle) && f.Kind() == reflect.Struct {
				name := v.Type().Name() + "." + v.Type().Field(i).Name
				found[name] = (*simkernel.TimerHandle)(unsafe.Pointer(f.UnsafeAddr()))
			}
		}
	}
	return found
}

func activeTimers(h *host) (active []string) {
	for name, f := range timerFields(h) {
		if f.Active() {
			active = append(active, name)
		}
	}
	return active
}

// TestCrashStopsEveryTimer: the record has one list of its timers, walked by
// stopTimers and by the auditor's dead-host check. A timer missing from it
// would survive a crash (its loop keeps firing on a dead host) and pass the
// audit; the auditor used to skip the maintenance, standby and probe loops.
func TestCrashStopsEveryTimer(t *testing.T) {
	e := newTestEnv(t, 97, func(c *Config) {
		c.StandbyFailover = true
		c.MaintenancePeriod = 10 * simkernel.Second
	})
	s := e.sys
	site := e.cfg.Sites[0]
	for m := 0; m < 3; m++ {
		e.submitAt(simkernel.Time(m+1)*simkernel.Second, 0, 0, m, m)
	}
	e.k.Run(5 * simkernel.Minute)

	// The regression: a directory whose round runs its maintenance and
	// standby parts crashes, then its standby with a live probe loop.
	dirAddr, _ := s.DirectoryAddr(site, 0)
	dir := s.host(dirAddr)
	standby := s.host(dir.role.standby)
	if standby == nil || !standby.watches(dirAddr) || standby.role.probeTicker.Stopped() {
		t.Fatal("premise: the directory designated no probing standby")
	}
	if slices.Contains(s.dirEvery[:], 0) || !timerFields(dir)["dirRole.round"].Active() {
		t.Fatalf("premise: the directory's round is not armed with every part (every %v)", s.dirEvery)
	}
	standby.rarely()
	s.FailPeer(dirAddr)
	s.FailPeer(standby.addr)
	for _, h := range []*host{dir, standby} {
		if left := activeTimers(h); len(left) > 0 {
			t.Fatalf("crashed host %d still has %v armed", h.addr, left)
		}
	}
	if r := s.Audit(); len(r.Violations) > 0 {
		t.Fatalf("audit after the crashes: %v", r.Violations)
	}

	// Every timer field is in the list: armed one at a time on the dead
	// standby, each is reported by the audit and cancelled by stopTimers.
	fields := timerFields(standby)
	oneShot, periodic := standby.timers()
	if len(fields) != len(oneShot)+len(periodic) {
		t.Fatalf("the record has %d timer fields, timers() lists %d", len(fields), len(oneShot)+len(periodic))
	}
	for name, f := range fields {
		*f = e.k.After(simkernel.Hour, func() { t.Errorf("%s fired on a dead host", name) })
		r := s.Audit()
		if len(r.Violations) != 1 || !strings.HasPrefix(r.Violations[0], "timers: dead host") {
			t.Fatalf("audit with only %s armed on a dead host: %v", name, r.Violations)
		}
		standby.stopTimers()
		if f.Active() {
			t.Fatalf("stopTimers left %s armed", name)
		}
	}
	e.k.Run(e.k.Now() + 2*simkernel.Hour)
}

// TestReviveIsBlankSlate: whatever a client's previous life left in its
// record — membership, a §5.4 locality override with a stash, a pending
// hardened admission, a latched dir-join, a standby role, estimator history
// — FailPeer → RevivePeer hands back the record of a host that was never
// used, identity kept.
func TestReviveIsBlankSlate(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := newTestEnv(t, 100+seed, func(c *Config) {
			c.Adaptive = true // makes the system hardened
			c.StandbyFailover = true
			c.MaintenancePeriod = 10 * simkernel.Second
			c.TGossip, c.TKeepalive = 30*simkernel.Second, 30*simkernel.Second
		})
		s := e.sys
		site := e.cfg.Sites[0]
		addr := s.PoolNode(0, 1, 0)
		h := s.host(addr)
		fresh := *s.host(s.PoolNode(0, 1, 4)) // same locality, never submits

		// Joins first, so it is its directory's most stable member: the standby.
		e.submitAt(simkernel.Second, 0, 1, 0, rng.Intn(e.cfg.ObjectsPerSite))
		e.submitAt(2*simkernel.Second, 0, 1, 1, rng.Intn(e.cfg.ObjectsPerSite))
		e.k.Run(simkernel.Time(1+rng.Intn(4)) * simkernel.Minute)
		if h.cp == nil {
			t.Fatalf("seed %d: client did not join", seed)
		}
		steps := []func(){
			func() {
				h.noteAdmit(e.obj(0, rng.Intn(e.cfg.ObjectsPerSite)))
				seen["admission"]++
			},
			func() {
				s.ChangeLocality(addr, 2*rng.Intn(2))
				if len(h.rare.stash) > 0 {
					seen["stash"]++
				}
			},
			func() {
				for i := 0; i < 2*adaptiveWarmup; i++ {
					s.observeRTT(addr, simkernel.Time(rng.Intn(500))*simkernel.Millisecond)
					s.noteHolderTimeout(addr)
				}
				seen["estimator"]++
			},
		}
		rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
		for _, step := range steps[:1+rng.Intn(len(steps))] {
			step()
			e.k.Run(e.k.Now() + simkernel.Time(rng.Intn(5000))*simkernel.Millisecond)
		}
		if h.phase == phStandby {
			seen["standby"]++
		}
		if rng.Intn(2) == 0 {
			// Last, so the crash comes while the request is still in flight.
			s.FailDirectory(site, 1)
			s.attemptDirJoin(h, site, 1)
			if !h.has(hfJoinInFlight) || !h.rare.joinTimer.Active() {
				t.Fatalf("seed %d: the dir-join did not latch", seed)
			}
			seen["latch"]++
		}
		s.FailPeer(addr)
		e.k.Run(e.k.Now() + simkernel.Time(rng.Intn(60))*simkernel.Second)
		if !s.RevivePeer(addr) {
			t.Fatalf("seed %d: revive refused", seed)
		}

		want := fresh
		want.addr = h.addr
		if *h != want {
			t.Fatalf("seed %d: revived record differs from a never-used host's:\n%s", seed, diffFields(*h, want))
		}
		if s.adapt[addr] != (adaptiveSlot{}) {
			t.Fatalf("seed %d: estimator state survived the revival: %+v", seed, s.adapt[addr])
		}
		if r := s.Audit(); len(r.Violations) > 0 {
			t.Fatalf("seed %d: audit after the revival: %v", seed, r.Violations)
		}
	}
	for _, what := range []string{"admission", "latch", "stash", "estimator", "standby"} {
		if seen[what] == 0 {
			t.Errorf("no seed left a %s behind; the test does not cover it", what)
		}
	}
}

// diffFields lists the fields in which two records differ.
func diffFields(got, want host) string {
	var b strings.Builder
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if gs, ws := fmt.Sprintf("%+v", g.Field(i)), fmt.Sprintf("%+v", w.Field(i)); gs != ws {
			fmt.Fprintf(&b, "  %s: got %s, want %s\n", g.Type().Field(i).Name, gs, ws)
		}
	}
	return b.String()
}
