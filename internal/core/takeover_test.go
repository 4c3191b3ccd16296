package core

import (
	"reflect"
	"strings"
	"testing"

	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// TestTakenOverDirectoryGivesIndexBack: a crashed directory gives its index
// back at the crash, before a §5.2 replacement takes the position over; it
// still cannot be revived, and the auditor reports a crashed directory that
// keeps an index.
func TestTakenOverDirectoryGivesIndexBack(t *testing.T) {
	e := newTestEnv(t, 9, func(c *Config) { c.MaintenancePeriod = 30 * simkernel.Second })
	s := e.sys
	site := e.cfg.Sites[0]
	for m := 0; m < 3; m++ {
		e.submitAt(simkernel.Time(m+1)*simkernel.Second, 0, 0, m, m)
	}
	e.k.Run(simkernel.Minute)
	addr, _ := s.DirectoryAddr(site, 0)
	old := s.host(addr)
	index := old.dir
	if index.Size() != 3 {
		t.Fatalf("premise: the directory indexes %d members, want 3", index.Size())
	}
	s.FailDirectory(site, 0)
	if old.dir != nil {
		t.Fatal("a crashed directory kept its index")
	}
	e.k.Run(20 * simkernel.Minute)
	if now, ok := s.DirectoryAddr(site, 0); !ok || now == addr || s.Stats().DirReplacements != 1 {
		t.Fatalf("premise: the position was not taken over (at %d, %d replacements)", now, s.Stats().DirReplacements)
	}
	if old.role.node == nil || s.RevivePeer(addr) {
		t.Fatal("the crashed directory became revivable when it gave its index back")
	}
	if r := s.Audit(); len(r.Violations) > 0 {
		t.Fatalf("audit after the take-over: %v", r.Violations)
	}
	old.dir = index
	r := s.Audit()
	if len(r.Violations) != 1 || !strings.HasPrefix(r.Violations[0], "phase: gone host") {
		t.Fatalf("audit of a crashed directory keeping an index: %v", r.Violations)
	}
}

// TestPromotedStandbyReleasesPrimaryIndex: a warm standby's primary gives its
// index back at the crash too; the standby promotes with its replica.
func TestPromotedStandbyReleasesPrimaryIndex(t *testing.T) {
	e := newTestEnv(t, 97, func(c *Config) {
		c.StandbyFailover = true
		c.MaintenancePeriod = 10 * simkernel.Second
	})
	s := e.sys
	site := e.cfg.Sites[0]
	for m := 0; m < 3; m++ {
		e.submitAt(simkernel.Time(m+1)*simkernel.Second, 0, 1, m, m)
	}
	e.k.Run(5 * simkernel.Minute)
	addr, _ := s.DirectoryAddr(site, 1)
	prim := s.host(addr)
	if sb := s.host(prim.role.standby); sb == nil || !sb.watches(addr) {
		t.Fatal("premise: the directory designated no standby")
	}
	s.FailPeer(addr)
	if prim.dir != nil {
		t.Fatal("the crashed primary kept its index")
	}
	e.k.Run(e.k.Now() + 2*simkernel.Minute)
	st := s.Stats()
	if now, ok := s.DirectoryAddr(site, 1); !ok || now != prim.role.standby || st.StandbyPromotions != 1 {
		t.Fatalf("premise: the standby did not take over (at %d, %d promotions)", now, st.StandbyPromotions)
	}
	if r := s.Audit(); len(r.Violations) > 0 {
		t.Fatalf("audit after the promotion: %v", r.Violations)
	}
}

// TestStandbyStandsDownForColdReplacement: the primary crashes and a cold
// §5.2 replacement takes the position before the standby's promotion runs.
// The promotion finds another directory in place: the standby stops probing
// the dead primary, becomes a plain member and adopts the new directory.
func TestStandbyStandsDownForColdReplacement(t *testing.T) {
	e := newTestEnv(t, 97, func(c *Config) {
		c.StandbyFailover = true
		c.MaintenancePeriod = 10 * simkernel.Second
	})
	s := e.sys
	site := e.cfg.Sites[0]
	for m := 0; m < 3; m++ {
		e.submitAt(simkernel.Time(m+1)*simkernel.Second, 0, 1, m, m)
	}
	e.k.Run(5 * simkernel.Minute)
	addr, _ := s.DirectoryAddr(site, 1)
	sb := s.host(s.host(addr).role.standby)
	if sb == nil || !sb.watches(addr) {
		t.Fatal("premise: the directory designated no standby")
	}
	var cold *host
	for m := 0; m < 3; m++ {
		if h := s.host(s.PoolNode(0, 1, m)); h.phase == phMember {
			cold = h
		}
	}
	boot, ok := s.DirectoryAddr(site, 0)
	if cold == nil || !ok {
		t.Fatal("premise: no plain member to volunteer, or no live directory to join through")
	}

	s.FailPeer(addr)
	s.handleDirJoinAccept(cold, dirJoinAcceptMsg{Key: sb.role.replica.Key(), Bootstrap: boot})
	if now, _ := s.DirectoryAddr(site, 1); now != cold.addr {
		t.Fatalf("premise: the cold replacement %d did not take the position (held by %d)", cold.addr, now)
	}
	s.handleStandbyPromote(sb)
	if sb.phase != phMember || !sb.role.probeTicker.Stopped() || sb.cp.Dir().Addr != cold.addr {
		t.Fatalf("the standby is %s, probing=%v, its directory %d; want a member, not probing, of directory %d",
			sb.phase, !sb.role.probeTicker.Stopped(), sb.cp.Dir().Addr, cold.addr)
	}
	if st := s.Stats(); st.StandbyPromotions != 0 || st.DirReplacements != 1 {
		t.Fatalf("%d promotions and %d replacements, want 0 and 1", st.StandbyPromotions, st.DirReplacements)
	}
	e.k.Run(e.k.Now() + 2*simkernel.Minute)
	if r := s.Audit(); len(r.Violations) > 0 {
		t.Fatalf("audit after the stand-down: %v", r.Violations)
	}
}

func TestReplacementDirectorySelfPush(t *testing.T) {
	// A §5.2 replacement directory is also a content peer; its own content
	// changes must flow into its index directly (no network self-push).
	e := newTestEnv(t, 42, func(c *Config) {
		c.MaintenancePeriod = 10 * simkernel.Second
	})
	site := e.cfg.Sites[0]
	for m := 0; m < 2; m++ {
		e.submitAt(simkernel.Time(m+1)*simkernel.Second, 0, 0, m, m)
	}
	e.k.At(simkernel.Minute, func() { e.sys.FailDirectory(site, 0) })
	e.k.Run(15 * simkernel.Minute)
	newAddr, ok := e.sys.DirectoryAddr(site, 0)
	if !ok {
		t.Fatal("no replacement directory")
	}
	nh := e.sys.host(newAddr)
	if nh.cp == nil || nh.dir == nil {
		t.Fatal("replacement not dual-role")
	}
	// The replacement now fetches a new object; its own index must list it.
	member := -1
	for m := 0; m < 2; m++ {
		if e.sys.PoolNode(0, 0, m) == newAddr {
			member = m
		}
	}
	if member == -1 {
		t.Fatal("replacement not in pool (unexpected)")
	}
	e.submitAt(16*simkernel.Minute, 0, 0, member, 7)
	e.k.Run(20 * simkernel.Minute)
	if len(nh.dir.Holders(e.obj(0, 7))) == 0 {
		t.Fatal("replacement directory did not self-index its new object")
	}
}

// syncLoss stands in front of a standby: the network loses the first
// maintenance message the primary sends it, and counts the ones after.
type syncLoss struct {
	h            *host
	primary      simnet.NodeID
	lost, passed *int
}

func (w syncLoss) HandleMessage(msg simnet.Message) {
	if msg.From == w.primary && msg.Category == simnet.CatMaintenance {
		if *w.lost == 0 {
			*w.lost = 1
			return
		}
		*w.passed++
	}
	w.h.HandleMessage(msg)
}

// TestLostStandbySyncRepaired: the primary's index changes once after the
// designation and the network loses the sync that carries the change; the
// next standby round repairs the replica, which then equals the primary's
// index row for row.
func TestLostStandbySyncRepaired(t *testing.T) {
	e := newTestEnv(t, 97, func(c *Config) { c.StandbyFailover = true })
	s := e.sys
	for m := 0; m < 3; m++ {
		e.submitAt(simkernel.Time(m+1)*simkernel.Second, 0, 1, m, m)
	}
	e.k.Run(5 * simkernel.Minute)
	addr, _ := s.DirectoryAddr(e.cfg.Sites[0], 1)
	prim := s.host(addr)
	sb := s.host(prim.role.standby)
	if sb == nil || !sb.watches(addr) || !reflect.DeepEqual(sb.role.replica.ExportEntries(nil), prim.dir.ExportEntries(nil)) {
		t.Fatal("premise: no standby whose replica equals the primary's index")
	}
	var lost, passed int
	s.net.Register(sb.addr, syncLoss{h: sb, primary: addr, lost: &lost, passed: &passed})
	prim.dir.ApplyPush(s.PoolNode(0, 1, 0), []model.ObjectRef{e.obj(0, 9), e.obj(0, 29)}, nil)
	for until := e.k.Now() + 5*simkernel.Minute; passed == 0; {
		next, ok := e.k.NextEvent()
		if !ok || next > until {
			t.Fatalf("no sync reached the standby after the lost one (%d lost)", lost)
		}
		e.k.Run(next)
		if lost == 1 && passed == 0 && len(sb.role.replica.Holders(e.obj(0, 29))) != 0 {
			t.Fatal("premise: the change reached the replica without the lost sync")
		}
	}
	if got, want := sb.role.replica.ExportEntries(nil), prim.dir.ExportEntries(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the next standby round the replica holds\n%v\nthe primary\n%v", got, want)
	}
}
