package core

import (
	"strings"
	"testing"

	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
)

// TestTakenOverDirectoryGivesIndexBack: a crashed directory keeps its index
// while its position is vacant, and gives it back when a §5.2 replacement
// takes the position over; it still cannot be revived, and the auditor
// reports a dead host that keeps the index of a position taken over.
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
	e.k.Run(e.k.Now() + simkernel.Second)
	if old.dir != index {
		t.Fatal("a crashed directory whose position is vacant dropped its index")
	}
	e.k.Run(20 * simkernel.Minute)
	if now, ok := s.DirectoryAddr(site, 0); !ok || now == addr || s.Stats().DirReplacements != 1 {
		t.Fatalf("premise: the position was not taken over (at %d, %d replacements)", now, s.Stats().DirReplacements)
	}
	if old.dir != nil {
		t.Fatal("the crashed directory kept its index after the position was taken over")
	}
	if old.role.node == nil || s.RevivePeer(addr) {
		t.Fatal("the crashed directory became revivable when it gave its index back")
	}
	if r := s.Audit(); len(r.Violations) > 0 {
		t.Fatalf("audit after the take-over: %v", r.Violations)
	}
	old.dir = index
	r := s.Audit()
	if len(r.Violations) != 1 || !strings.HasPrefix(r.Violations[0], "index: dead host") {
		t.Fatalf("audit of a dead host keeping a taken-over index: %v", r.Violations)
	}
}

// TestPromotedStandbyReleasesPrimaryIndex: a warm standby's promotion takes
// the position over too, so the crashed primary gives its index back — after
// the promotion has counted the shards the primary dirtied and never shipped.
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
	// A push the standby never sees: its shards are still dirty at the crash.
	prim.dir.ApplyPush(s.PoolNode(0, 1, 0), []model.ObjectRef{e.obj(0, 9), e.obj(0, 29)}, nil)
	dirty := prim.dir.DirtyShardCount()
	if dirty == 0 {
		t.Fatal("premise: no dirty shard at the crash")
	}
	s.FailPeer(addr)
	e.k.Run(e.k.Now() + 2*simkernel.Minute)
	st := s.Stats()
	if now, ok := s.DirectoryAddr(site, 1); !ok || now != prim.role.standby || st.StandbyPromotions != 1 {
		t.Fatalf("premise: the standby did not take over (at %d, %d promotions)", now, st.StandbyPromotions)
	}
	if st.StandbyStaleShards != dirty {
		t.Fatalf("promotion counted %d stale shards, the primary had %d dirty", st.StandbyStaleShards, dirty)
	}
	if prim.dir != nil {
		t.Fatal("the crashed primary kept its index after the standby took over")
	}
	if r := s.Audit(); len(r.Violations) > 0 {
		t.Fatalf("audit after the promotion: %v", r.Violations)
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
