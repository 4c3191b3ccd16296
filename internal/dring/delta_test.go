package dring

import (
	"math/rand"
	"testing"

	"flowercdn/internal/model"
	"flowercdn/internal/simnet"
)

// TestDeltaSyncMatchesFullExport is the standby-replication equivalence
// property: a replica kept fresh by budget-bounded dirty-shard deltas
// converges, once the dirty backlog drains, to exactly the holdings a
// full ExportEntries/ImportEntries transfer would have produced. The walk
// exercises every mutation path that can dirty a shard — optimistic
// admissions, push deltas (adds and removes), whole-peer removals,
// evictions and a mid-walk bulk import — and syncs with a deliberately
// small per-round budget so shards stay dirty across rounds.
func TestDeltaSyncMatchesFullExport(t *testing.T) {
	for _, seed := range []int64{7, 19, 83} {
		seed := seed
		rng := rand.New(rand.NewSource(seed))

		primary := propDirectory(64)
		replica := propDirectory(64)
		primary.EnableDeltaTracking()
		replica.ImportEntries(primary.ExportEntries()) // designation-time full sync

		sync := func(budget int) {
			var shards []int32
			shards = primary.TakeDirtyShards(shards, budget)
			var buf []ShardEntry
			for _, s := range shards {
				buf = primary.ExportShard(int(s), buf[:0])
				// Copy through a fresh slice: the wire message owns its rows.
				wire := make([]ShardEntry, len(buf))
				copy(wire, buf)
				if ShardRefCount(wire) < 0 {
					t.Fatal("negative ref count")
				}
				replica.ApplyShardDelta(int(s), wire)
			}
		}

		for step := 0; step < 1200; step++ {
			node := simnet.NodeID(rng.Intn(48) + 1)
			obj := rng.Intn(propObjects)
			switch rng.Intn(12) {
			case 0, 1, 2:
				primary.AddOptimistic(node, pref(obj))
			case 3, 4, 5:
				primary.ApplyPush(node, []model.ObjectRef{pref(obj), pref(rng.Intn(propObjects))}, nil)
			case 6:
				primary.ApplyPush(node, nil, []model.ObjectRef{pref(obj)})
			case 7:
				primary.RemovePeer(node)
			case 8:
				primary.TickAges()
			case 9:
				primary.KeepaliveAt(node, -1)
			case 10:
				if rng.Intn(20) == 0 {
					primary.EvictOlderThan(3)
				}
			default:
				if rng.Intn(50) == 0 {
					// Bulk rewrite: a transplanted index must dirty
					// every shard, not just the refs it re-adds.
					primary.ImportEntries(primary.ExportEntries())
				}
			}
			if step%37 == 0 {
				sync(2) // budget smaller than the dirty backlog on purpose
			}
		}

		// Drain the backlog with dirty-shard deltas only: holdings must now
		// be exact. Ages may lag for members whose shards went clean before
		// their last TickAges — that is the documented bounded staleness.
		sync(0)
		for i := 0; i < propObjects; i++ {
			ref := primary.RefAt(i)
			ph, rh := primary.Holders(ref), replica.Holders(ref)
			if len(ph) != len(rh) {
				t.Fatalf("seed %d ref %d: replica holders %v, primary %v", seed, i, rh, ph)
			}
			for j := range ph {
				if ph[j] != rh[j] {
					t.Fatalf("seed %d ref %d: replica holders %v, primary %v", seed, i, rh, ph)
				}
			}
		}
		if primary.ObjectCount() != replica.ObjectCount() {
			t.Fatalf("seed %d: object count %d, want %d", seed, replica.ObjectCount(), primary.ObjectCount())
		}
		if v, checks := replica.AuditConsistency(nil, 8); len(v) != 0 {
			t.Fatalf("seed %d: replica audit (%d checks) violations: %v", seed, checks, v)
		} else if checks == 0 {
			t.Fatalf("seed %d: audit performed no checks", seed)
		}

		// A full shard pass (what a re-designation would ship) additionally
		// squares away the age staleness: every member that holds anything
		// must then match the primary's row exactly.
		var buf []ShardEntry
		for s := 0; s < primary.ShardCount(); s++ {
			buf = primary.ExportShard(s, buf[:0])
			replica.ApplyShardDelta(s, buf)
		}
		psnap := primary.ExportEntries()
		for _, row := range psnap {
			if row.Objects.Count() == 0 {
				continue // holdings-free members never cross the delta wire
			}
			rs, ok := replica.slot[row.Node]
			if !ok {
				t.Fatalf("seed %d: replica misses member %d", seed, row.Node)
			}
			if int(replica.ages[rs]) != row.Age {
				t.Fatalf("seed %d member %d: replica age %d, primary %d", seed, row.Node, replica.ages[rs], row.Age)
			}
			for i := 0; i < propObjects; i++ {
				if replica.holders.has(i, int(rs)) != row.Objects.Has(i) {
					t.Fatalf("seed %d member %d object %d mismatch", seed, row.Node, i)
				}
			}
		}
	}
}

// TestDeltaTrackingDisabledInert pins the disabled path: without
// EnableDeltaTracking no mutation records dirt and TakeDirtyShards
// returns nothing.
func TestDeltaTrackingDisabledInert(t *testing.T) {
	d := propDirectory(16)
	d.AddOptimistic(1, pref(0))
	d.ApplyPush(2, []model.ObjectRef{pref(64), pref(130)}, nil)
	d.RemovePeer(1)
	if d.DeltaTracking() {
		t.Fatal("tracking armed by default")
	}
	if n := d.DirtyShardCount(); n != 0 {
		t.Fatalf("dirty shards with tracking off: %d", n)
	}
	if got := d.TakeDirtyShards(nil, 0); len(got) != 0 {
		t.Fatalf("TakeDirtyShards with tracking off: %v", got)
	}

	d.EnableDeltaTracking()
	d.AddOptimistic(1, pref(0))
	d.ApplyPush(2, nil, []model.ObjectRef{pref(130)})
	if n := d.DirtyShardCount(); n != 2 {
		t.Fatalf("dirty shards = %d, want 2 (shard 0 and shard 2)", n)
	}
	got := d.TakeDirtyShards(nil, 1)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("budgeted take = %v, want [0]", got)
	}
	if n := d.DirtyShardCount(); n != 1 {
		t.Fatalf("remaining dirty = %d, want 1", n)
	}
	d.DisableDeltaTracking()
	if n := d.DirtyShardCount(); n != 0 {
		t.Fatalf("dirty shards after disable: %d", n)
	}
}
