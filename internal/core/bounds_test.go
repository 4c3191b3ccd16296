package core

import (
	"testing"

	"flowercdn/internal/chord"
	"flowercdn/internal/model"
	"flowercdn/internal/simnet"
)

func modelRef(i int) model.ObjectRef { return model.ObjectRef(i) }

// The per-query failure memory must stay bounded no matter how long a
// faulted query cycles through directories and holders: FIFO eviction keeps
// the newest entries and forgets the oldest.
func TestQueryFailureMemoryBounded(t *testing.T) {
	q := &Query{}
	for i := 0; i < 10*maxTriedDirs; i++ {
		q.markTriedDir(chord.ID(i))
	}
	if q.fails.nDirs != maxTriedDirs {
		t.Fatalf("tried dirs grew to %d, cap is %d", q.fails.nDirs, maxTriedDirs)
	}
	if !q.triedDir(chord.ID(10*maxTriedDirs - 1)) {
		t.Fatal("newest tried dir evicted; eviction must be FIFO")
	}
	if q.triedDir(chord.ID(0)) {
		t.Fatal("oldest tried dir survived past the cap")
	}

	for i := 0; i < 10*maxFailedHolders; i++ {
		q.markFailedHolder(simnet.NodeID(i))
	}
	if len(q.fails.holders) != maxFailedHolders {
		t.Fatalf("failed holders grew to %d, cap is %d", len(q.fails.holders), maxFailedHolders)
	}
	if !q.triedHolder(simnet.NodeID(10*maxFailedHolders - 1)) {
		t.Fatal("newest failed holder evicted; eviction must be FIFO")
	}
	if q.triedHolder(simnet.NodeID(0)) {
		t.Fatal("oldest failed holder survived past the cap")
	}
}

// The pending-admission record behind the auditor's stale-entry tolerance
// is bounded the same way.
func TestAdmitPendingBounded(t *testing.T) {
	var h host
	if h.admitPendingFor(modelRef(0)) || h.rare != nil {
		t.Fatal("a query about pending admissions allocated the rare state")
	}
	for i := 0; i < 10*maxAdmitPending; i++ {
		h.noteAdmit(modelRef(i))
	}
	if n := len(h.rare.admitPending); n != maxAdmitPending {
		t.Fatalf("admitPending grew to %d, cap is %d", n, maxAdmitPending)
	}
	if !h.admitPendingFor(modelRef(10*maxAdmitPending - 1)) {
		t.Fatal("newest pending admission evicted; eviction must be FIFO")
	}
	h.clearAdmit(modelRef(10*maxAdmitPending - 1))
	if h.admitPendingFor(modelRef(10*maxAdmitPending - 1)) {
		t.Fatal("clearAdmit left the entry behind")
	}
}
