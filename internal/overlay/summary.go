package overlay

import (
	"slices"

	"flowercdn/internal/bloom"
	"flowercdn/internal/model"
)

// probeTable is one website's objects against one Bloom filter shape, laid
// out for testing an object: for each of its k probe bits (bloom.AppendProbes,
// the bits AddHash sets) the objects that probe that bit, itself included. A
// filter over some of the objects tests positive for object i exactly when
// each of i's k lists holds one of them. Every overlay of the site with that
// shape shares the table, through the interner.
type probeTable struct {
	k    int
	off  []uint32 // object i's x-th list is objs[off[k·i+x]:off[k·i+x+1]]
	objs []uint32
}

// probeKey names a probe table in the interner's cache.
type probeKey struct{ site, mBits, k int }

// probeTableFor returns the probe table of the site with dense index si for
// filters of mBits bits and k probes, building it on first use.
func probeTableFor(in *model.Interner, si, mBits, k int) *probeTable {
	return model.Derived(in, probeKey{si, mBits, k}, func() *probeTable {
		return newProbeTable(in, in.SiteBase(si), mBits, k)
	})
}

func newProbeTable(in *model.Interner, base model.ObjectRef, mBits, k int) *probeTable {
	n := in.ObjectsPerSite()
	pos := make([]uint32, 0, n*k) // object i probes pos[k·i : k·i+k]
	for i := 0; i < n; i++ {
		h1, h2 := in.Hashes(base + model.ObjectRef(i))
		pos = bloom.AppendProbes(pos, mBits, k, h1, h2)
	}
	// The objects probing each bit, by counting sort: bit b's are
	// by[first[b]:first[b+1]], ascending, an object listed twice where two of
	// its probes coincide.
	first := make([]uint32, mBits+1)
	for _, b := range pos {
		first[b+1]++
	}
	for b := 1; b <= mBits; b++ {
		first[b] += first[b-1]
	}
	by := make([]uint32, len(pos))
	next := slices.Clone(first[:mBits])
	for x, b := range pos {
		by[next[b]] = uint32(x / k)
		next[b]++
	}
	t := &probeTable{k: k, off: make([]uint32, 1, len(pos)+1)}
	for _, b := range pos {
		t.objs = append(t.objs, by[first[b]:first[b+1]]...)
		t.off = append(t.off, uint32(len(t.objs)))
	}
	return t
}

// list returns the objects that probe object i's x-th bit.
func (t *probeTable) list(i, x int) []uint32 { return t.objs[t.off[t.k*i+x]:t.off[t.k*i+x+1]] }

// storesAny reports whether the peer stores one of objs.
func (c *ContentPeer) storesAny(objs []uint32) bool {
	for _, o := range objs {
		if c.content.Has(int(o)) {
			return true
		}
	}
	return false
}

// tests reports whether the Bloom filter over the peer's content list tests
// positive for object j: whether a stored object probes each of j's bits.
// The peer keeps no filter; its content bitset and the site's table are all
// the filter is.
func (c *ContentPeer) tests(j int) bool {
	t := c.sh.probes
	for x := 0; x < t.k; x++ {
		if !c.storesAny(t.list(j, x)) {
			return false
		}
	}
	return true
}

// publish writes the peer's summary into the empty f: the Bloom filter over
// its content list (publishFilter) or, where the overlay has a probe table,
// the filter's answers. After additions alone it copies the last answer set
// and re-tests only the objects that probe a bit newly set by an object
// stored since (fresh): an answer turns from false to true only when one of
// its object's bits does, and none turns back without a removal. A rebuild
// (nFresh == rebuildSummary) tests every object. Either way f equals, bit for
// bit, the answers of a filter rebuilt from the content list
// (TestSummaryDeltaAgainstRebuild).
func (c *ContentPeer) publish(f *bloom.Filter) {
	t := c.sh.probes
	if t == nil {
		c.publishFilter(f)
		return
	}
	if c.nFresh < 0 {
		for j := range c.content.Cap() {
			if c.content.Has(j) || c.tests(j) {
				f.SetAnswer(j)
			}
		}
		return
	}
	_ = f.Union(c.summary) // a copy: both are answer sets of the site
	fresh := c.fresh[:c.nFresh]
	for _, i := range fresh {
		f.SetAnswer(int(i))
	bit:
		for x := 0; x < t.k; x++ {
			objs := t.list(int(i), x)
			for _, o := range objs {
				if c.content.Has(int(o)) && !slices.Contains(fresh, int32(o)) {
					continue bit // set before: no answer on it changed
				}
			}
			for _, j := range objs {
				if !f.Answer(int(j)) && c.tests(int(j)) {
					f.SetAnswer(int(j))
				}
			}
		}
	}
}

// publishFilter writes the Bloom filter over the peer's content list into
// the empty filter f: the last snapshot plus the objects stored since, or a
// rebuild from the content list. Its bits and insertion count are the
// rebuild's either way.
func (c *ContentPeer) publishFilter(f *bloom.Filter) {
	add := func(i int) { f.AddHash(c.sh.in.Hashes(c.sh.base + model.ObjectRef(i))) }
	if c.nFresh > 0 {
		_ = f.Union(c.summary) // a copy: both have the overlay's shape
		for _, i := range c.fresh[:c.nFresh] {
			add(int(i))
		}
		return
	}
	c.content.ForEach(add)
}
