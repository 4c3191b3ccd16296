package core

import (
	"testing"

	"flowercdn/internal/simkernel"
)

func TestReplicaOfferToEmptyOverlayIsDropped(t *testing.T) {
	e := newTestEnv(t, 40, func(c *Config) {
		c.ReplicationTopK = 3
		c.TGossip = simkernel.Minute // one offer round a minute
	})
	// Only locality 0 has content; locality 1's overlay stays empty, so
	// offers to its directory must be dropped without effect.
	e.submitAt(simkernel.Second, 0, 0, 0, 1)
	e.k.Run(10 * simkernel.Minute)
	if got := e.sys.DirectoryIndexSize(e.cfg.Sites[0], 1); got != 0 {
		t.Fatalf("empty overlay gained members from replication: %d", got)
	}
	if e.sys.Stats().Prefetches != 0 {
		t.Fatalf("prefetches into empty overlays: %d", e.sys.Stats().Prefetches)
	}
}

func TestPrefetchFromHolderThatLostObject(t *testing.T) {
	e := newTestEnv(t, 41, func(c *Config) {
		c.ReplicationTopK = 3
		c.TGossip = simkernel.Minute // one offer round a minute
	})
	// Build both overlays, make object 1 popular in locality 0.
	e.submitAt(simkernel.Second, 0, 0, 0, 1)
	e.submitAt(2*simkernel.Second, 0, 1, 0, 7)
	for i := 0; i < 3; i++ {
		e.submitAt(simkernel.Time(10+i)*simkernel.Second, 0, 0, 0, 1)
	}
	// Let one offer round happen, but evict the object from the holder
	// just before: the prefetch fetch must fail silently.
	e.k.At(30*simkernel.Second, func() {
		h := e.sys.host(e.sys.PoolNode(0, 0, 0))
		if h.cp != nil {
			h.cp.RemoveObject(e.obj(0, 1))
		}
	})
	e.k.Run(15 * simkernel.Minute)
	// The system must stay healthy; the object may or may not have been
	// replicated depending on offer timing, but nothing may crash and the
	// locality-1 directory must not list a holder that lacks the object.
	dirAddr, ok := e.sys.DirectoryAddr(e.cfg.Sites[0], 1)
	if !ok {
		t.Fatal("directory missing")
	}
	dh := e.sys.host(dirAddr)
	for _, holder := range dh.dir.Holders(e.obj(0, 1)) {
		hh := e.sys.host(holder)
		if hh.cp == nil || !hh.cp.Has(e.obj(0, 1)) {
			t.Fatalf("directory lists non-holder %d", holder)
		}
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
