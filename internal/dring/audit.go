package dring

import (
	"fmt"

	"flowercdn/internal/model"
	"flowercdn/internal/simnet"
)

// This file holds the directory's self-consistency audit, used by the
// core invariant auditor under fault injection. The directory index is
// one holder matrix (object → one bit per member slot) over a member slab
// whose NodeID→slot map must match it, plus per-ref, per-shard and total
// counters that summarise the matrix. Message loss, partitions and churn
// exercise every mutation path (pushes, optimistic admissions, evictions,
// imports), so the audit checks the slab's bijection, that every matrix
// bit names a member, and re-derives the counters from the matrix.

// ForEachHeld calls fn for every object ref with at least one recorded
// holder, in ascending ref order, with its holders in ascending node order
// (directory-owned scratch, valid until the next call; do not retain it or
// call Holders from fn).
func (d *Directory) ForEachHeld(fn func(ref model.ObjectRef, holders []simnet.NodeID)) {
	d.holders.forEachHeld(func(i int) {
		fn(d.base+model.ObjectRef(i), d.holdersAt(i))
	})
}

// AuditConsistency checks the member slab against its slot map and the
// holder matrix against the slab and its counters, appending one
// human-readable line per violation to out (capped at max new entries;
// max <= 0 means unlimited). It returns out plus the number of checks
// performed: one per slot-map entry, one for the slab arity, one per
// matrix bit, one per shard and one for the total.
func (d *Directory) AuditConsistency(out []string, max int) ([]string, int) {
	checks := 0
	report := func(format string, args ...any) {
		if max <= 0 || len(out) < max {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}

	// Slot map and member slab must agree bijectively.
	for node, i := range d.slot {
		checks++
		if int(i) < 0 || int(i) >= len(d.nodes) || d.nodes[i] != node {
			report("dring %s/%d: slot map points node %d at slot %d, slab disagrees", d.site, d.loc, node, i)
		}
	}
	checks++
	if len(d.slot) != len(d.nodes) || len(d.nodes) != len(d.ages) {
		report("dring %s/%d: slab arity mismatch slot=%d nodes=%d ages=%d",
			d.site, d.loc, len(d.slot), len(d.nodes), len(d.ages))
	}

	// Every matrix bit names a member, plus the per-ref, per-shard and
	// total counters (a shard's ref counts ride its one check).
	total := 0
	for si, shardHeld := range d.holders.held {
		held := 0
		for j := si << shardBits; j < min((si+1)<<shardBits, d.nObj); j++ {
			n := 0
			d.holders.forEachSlot(j, func(s int) {
				checks++
				n++
				if s >= len(d.nodes) {
					report("dring %s/%d: ref %d row sets empty slot %d", d.site, d.loc, j, s)
				}
			})
			if c := d.holders.holderCount(j); c != n {
				report("dring %s/%d: ref %d holder count %d, recomputed %d", d.site, d.loc, j, c, n)
			}
			if n > 0 {
				held++
			}
		}
		checks++
		if held != int(shardHeld) {
			report("dring %s/%d: shard %d held count %d, recomputed %d", d.site, d.loc, si, shardHeld, held)
		}
		total += held
	}
	checks++
	if total != d.holders.total {
		report("dring %s/%d: total held count %d, recomputed %d", d.site, d.loc, d.holders.total, total)
	}
	return out, checks
}
