package core

import (
	"slices"
	"testing"

	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// TestPlanDirRound: the directory round ticks at the shortest armed period,
// so some part runs on every round, and every longer period is rounded down
// to a whole number of rounds, so that no part runs less often than its
// period asks (DESIGN.md "Periodic behaviours").
func TestPlanDirRound(t *testing.T) {
	const s, m = simkernel.Second, simkernel.Minute
	for _, c := range []struct {
		name               string
		edit               func(*Config)
		period, cycle      simkernel.Time
		every              [3]simkernel.Time
		standbyNotStalerBy simkernel.Time // configured sync period minus the round's (≥ 0)
	}{
		{"clean: age/evict alone", nil, 2 * m, 1, [...]simkernel.Time{1, 0, 0}, 0},
		{"maintenance shares the gossip period", func(c *Config) { c.MaintenancePeriod = 2 * m },
			2 * m, 1, [...]simkernel.Time{1, 0, 1}, 0},
		{"dircrash storm: 37.5 s sync under 30 s maintenance", func(c *Config) {
			c.TGossip, c.TKeepalive, c.MaintenancePeriod, c.StandbyFailover = 5*m, 5*m, 30*s, true
		}, 30 * s, 10, [...]simkernel.Time{10, 1, 1}, 7500 * simkernel.Millisecond},
		{"paper periods: 225 s sync under 30 s maintenance", func(c *Config) {
			c.TGossip, c.TKeepalive, c.MaintenancePeriod, c.StandbyFailover = 30*m, 30*m, 30*s, true
		}, 30 * s, 60, [...]simkernel.Time{60, 7, 1}, 15 * s},
		{"sync alone shorter than gossip", func(c *Config) { c.TGossip, c.TKeepalive, c.StandbyFailover = m, 4*m, true },
			30 * s, 2, [...]simkernel.Time{2, 1, 0}, 0},
	} {
		e := newTestEnv(t, 5, c.edit)
		sys := e.sys
		if sys.dirPeriod != c.period || sys.dirCycle != c.cycle || sys.dirEvery != c.every {
			t.Errorf("%s: round %s every %v cycle %d, want %s %v %d",
				c.name, sys.dirPeriod, sys.dirEvery, sys.dirCycle, c.period, c.every, c.cycle)
		}
		if !slices.Contains(sys.dirEvery[:], 1) {
			t.Errorf("%s: no part runs every round, so some rounds fire with nothing due", c.name)
		}
		if c.every[1] > 0 {
			if lag := max(e.cfg.TKeepalive/8, simkernel.Second) - c.every[1]*sys.dirPeriod; lag != c.standbyNotStalerBy {
				t.Errorf("%s: standby sync %s shorter than configured, want %s", c.name, lag, c.standbyNotStalerBy)
			}
		}
	}
}

// TestDirRoundParts arms all three parts on periods that do not nest (a
// 37.5 s standby sync under 10 s maintenance and a 1-minute gossip period)
// and counts each part's runs on every directory over ten gossip periods,
// one installed mid-run included: part i runs exactly on every
// dirEvery[i]-th round, at the one residue its host drew.
func TestDirRoundParts(t *testing.T) {
	e := newTestEnv(t, 41, func(c *Config) {
		c.TGossip, c.TKeepalive = simkernel.Minute, 5*simkernel.Minute
		c.MaintenancePeriod = 10 * simkernel.Second
		c.StandbyFailover = true
	})
	s := e.sys
	if want := [...]simkernel.Time{6, 3, 1}; s.dirPeriod != 10*simkernel.Second || s.dirEvery != want || s.dirCycle != 6 {
		t.Fatalf("premise: round %s every %v cycle %d", s.dirPeriod, s.dirEvery, s.dirCycle)
	}
	var runs [3]map[simnet.NodeID][]simkernel.Time
	for i := range runs {
		runs[i] = map[simnet.NodeID][]simkernel.Time{}
		part := dirParts[i]
		dirParts[i] = func(s *System, h *host) { runs[i][h.addr] = append(runs[i][h.addr], s.k.Now()); part(s, h) }
		t.Cleanup(func() { dirParts[i] = part })
	}
	for m := 0; m < 4; m++ {
		e.submitAt(simkernel.Time(m+1)*simkernel.Second, 0, 0, m, m)
	}
	// A voluntary leave installs a directory mid-run, off the round's grid.
	e.k.Run(2*simkernel.Minute + 37*simkernel.Second)
	if !s.DirectoryLeave(e.cfg.Sites[0], 0) {
		t.Fatal("premise: voluntary leave refused")
	}
	successor, _ := s.DirectoryAddr(e.cfg.Sites[0], 0)
	const horizon = 10 * simkernel.Minute
	e.k.Run(horizon)

	dirs := 0
	for _, addr := range s.dirAddrs {
		h := s.hosts[addr]
		if h.phase != phDirectory {
			continue // departed: its round stopped
		}
		first := runs[2][addr][0] // maintenance runs every round, the first included
		for i, k := range s.dirEvery {
			got := runs[i][addr]
			// The ticker fired at first + j·period for every j until the
			// horizon; part i owns the rounds whose count is the residue mod k.
			want := 0
			for at := first; at <= horizon; at += s.dirPeriod {
				if at/s.dirPeriod%k == simkernel.Time(h.role.residue)%k {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("dir %d part %d: ran %d times, want %d", addr, i, len(got), want)
			}
			for j, at := range got {
				if at/s.dirPeriod%k != simkernel.Time(h.role.residue)%k || j > 0 && at-got[j-1] != k*s.dirPeriod {
					t.Fatalf("dir %d part %d: run %d at %s off its nested period %s at residue %d",
						addr, i, j, at, k*s.dirPeriod, simkernel.Time(h.role.residue)%k)
				}
			}
			if len(got) < int((horizon-first)/(k*s.dirPeriod)) {
				t.Fatalf("dir %d part %d: %d runs in %s at a period of %s", addr, i, len(got), horizon, k*s.dirPeriod)
			}
		}
		dirs++
	}
	if dirs == 0 || len(runs[1][successor]) == 0 {
		t.Fatal("premise: the directory installed mid-run ran no standby part")
	}
}

// dirRoundEnv is dispatchEnv's directory with every part of its round
// armed — a designated standby with delta sync, stabilisation every 10 s —
// over three settled overlays of one website, one per locality: the
// directory holds its neighbours' summaries, and its standby's replica is
// in sync.
func dirRoundEnv(t testing.TB) (e *testEnv, dir *host) {
	e = newTestEnv(t, 88, func(c *Config) {
		c.MaintenancePeriod = 10 * simkernel.Second
		c.StandbyFailover = true
	})
	for loc := 0; loc < 3; loc++ {
		for m := 0; m < 3; m++ {
			e.submitAt(simkernel.Time(3*loc+m+1)*simkernel.Second, 0, loc, m, 3+m)
		}
	}
	e.k.Run(30 * simkernel.Minute)
	addr, _ := e.sys.DirectoryAddr(e.cfg.Sites[0], 0)
	dir = e.sys.host(addr)
	if slices.Contains(e.sys.dirEvery[:], 0) || dir.role.standby == noNode || dir.dir.MemberCount() < 3 ||
		len(dir.dir.NeighborSummaries()) == 0 {
		t.Fatalf("premise: every %v, standby %d, %d members, %d neighbour summaries", e.sys.dirEvery,
			dir.role.standby, dir.dir.MemberCount(), len(dir.dir.NeighborSummaries()))
	}
	return e, dir
}

// TestDirRoundAllocs is the alloc gate for the directory round, as
// TestDispatchLoopAllocs is for a member's: at steady state a round that
// runs every part — the index's age/evict sweep, the standby check and the
// D-ring stabilisation with its nominal traffic — allocates nothing, and
// neither does the rest of the system between two such rounds.
func TestDirRoundAllocs(t *testing.T) {
	e, dir := dirRoundEnv(t)
	s := e.sys
	var full simkernel.Time // the last instant dir ran every part
	runs := 0
	part := dirParts[0] // the age/evict part, armed on the longest period
	dirParts[0] = func(s *System, h *host) {
		if h == dir {
			full = s.k.Now()
			runs++
		}
		part(s, h)
	}
	t.Cleanup(func() { dirParts[0] = part })
	cycle := s.dirCycle * s.dirPeriod
	e.k.Run(e.k.Now() + 4*cycle)
	runs = 0
	allocs := testing.AllocsPerRun(20, func() { e.k.Run(full + cycle) })
	if runs != 21 {
		t.Fatalf("premise: the directory ran %d full rounds, want 21", runs)
	}
	if allocs != 0 {
		t.Fatalf("a cycle of directory rounds running every part allocates %.2f allocs/op, want 0", allocs)
	}
}
