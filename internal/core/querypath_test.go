package core

import (
	"testing"

	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/trace"
)

// queryPathEnv builds a populated small system and returns the pieces the
// lookup hot path touches: a joined member with content and view
// summaries, and its locality directory with holders and a neighbour
// summary.
func queryPathEnv(t testing.TB) (e *testEnv, member *host, dir *host, ref model.ObjectRef) {
	e = newTestEnv(t, 77, nil)
	// Two members of (site 0, locality 0) join and cross-pollinate object 3
	// so views hold summaries and the directory indexes holders.
	e.submitAt(simkernel.Second, 0, 0, 0, 3)
	e.submitAt(2*simkernel.Second, 0, 0, 1, 5)
	e.submitAt(3*simkernel.Minute, 0, 0, 1, 3)
	e.k.Run(10 * simkernel.Minute)

	member = e.sys.host(e.sys.PoolNode(0, 0, 1))
	if member.cp == nil {
		t.Fatal("member did not join")
	}
	dirAddr, ok2 := e.sys.DirectoryAddr(e.cfg.Sites[0], 0)
	if !ok2 {
		t.Fatal("directory missing")
	}
	dir = e.sys.host(dirAddr)
	ref = e.sys.in.RefFor(0, 3)
	if !member.cp.Has(ref) {
		t.Fatal("member does not hold the probe object")
	}
	if len(dir.dir.Holders(ref)) == 0 {
		t.Fatal("directory has no holders for the probe object")
	}
	// A neighbour summary so the Stage-C probe path is exercised too.
	dir.dir.UpdateNeighborSummary(dir.dir.Key()+1, 1, dir.dir.BuildSummary())
	return e, member, dir, ref
}

// queryPathOnce runs the Bloom-probe/hit-check operations of one member
// lookup plus the directory stages: local bitset hit-check, view summary
// matching over precomputed hashes into the candidate scratch buffer,
// directory inverse-index lookup, and the neighbour-summary probe. It
// returns a value derived from the results so nothing is optimised away.
func queryPathOnce(s *System, member, dir *host, ref model.ObjectRef) int {
	h1, h2 := s.in.Hashes(ref)
	n := 0
	if member.cp.Has(ref) {
		n++
	}
	n += len(s.candidates(member.cp, ref))
	n += len(dir.dir.Holders(ref))
	n += len(dir.dir.NeighborsWithObject(ref))
	if member.cp.Summary().TestHash(h1, h2) {
		n++
	}
	return n
}

// TestQueryPathAllocs is the alloc gate for the content-plane hot path:
// with interned refs, bitsets and precomputed hashes, a lookup probe
// sequence allocates nothing.
func TestQueryPathAllocs(t *testing.T) {
	e, member, dir, ref := queryPathEnv(t)
	sink := 0
	allocs := testing.AllocsPerRun(200, func() {
		sink += queryPathOnce(e.sys, member, dir, ref)
	})
	if sink == 0 {
		t.Fatal("query path probes found nothing; setup broken")
	}
	if allocs != 0 {
		t.Fatalf("query path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestTraceDisabledAllocs proves disabled tracing costs nothing: a record
// of every kind and text variant, built from what the emission sites pass,
// is dropped by the nil check without allocating.
func TestTraceDisabledAllocs(t *testing.T) {
	e, member, dir, ref := queryPathEnv(t)
	if e.sys.tracer != nil {
		t.Fatal("env unexpectedly traced")
	}
	allocs := testing.AllocsPerRun(200, func() {
		for k := trace.Kind(0); k <= trace.Prefetch; k++ {
			for v := trace.Variant(0); v <= trace.StandbyPromoted; v++ {
				e.sys.trace(trace.Record{Kind: k, Variant: v, Query: 1, Node: member.addr, Peer: dir.addr,
					Str: e.sys.in.Key(ref), Loc: int32(dir.dir.Locality()), Args: [2]int32{trace.Ms(12.5), trace.Ms(34)}})
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkQueryPath measures the interned lookup probes themselves (the
// per-query content-plane work, excluding simulator machinery).
func BenchmarkQueryPath(b *testing.B) {
	e, member, dir, ref := queryPathEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += queryPathOnce(e.sys, member, dir, ref)
	}
	if sink == 0 {
		b.Fatal("query path probes found nothing")
	}
}
