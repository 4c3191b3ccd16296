package model

import (
	"fmt"
	"sync"

	"flowercdn/internal/bloom"
)

// ObjectRef is a dense interned object identifier: objects are numbered
// site-major, so the ref space is [0, sites·objectsPerSite) and ref
// arithmetic recovers (site, num) without a lookup. Every layer that
// touches content identity on the query path — Bloom summaries, content
// bitsets, directory inverse indexes, wire messages — keys on ObjectRef
// instead of the canonical URL string.
type ObjectRef uint32

// NoRef is the invalid sentinel (no object).
const NoRef ObjectRef = ^ObjectRef(0)

// Interner maps the fixed object universe (every site's objectsPerSite
// objects) to dense refs, and precomputes per object the canonical key
// string and the two 64-bit FNV-1a streams Bloom probes derive their
// indices from. It is built once at system construction and read-only
// afterwards, so sharing one instance across layers (and goroutine-free
// simulation runs) is safe. What layers derive from it once per interner
// lives in a synchronised cache (see Derived).
type Interner struct {
	sites   []SiteID
	siteIdx map[SiteID]int
	perSite int

	keys   []string // ref → ObjectID.Key()
	h1, h2 []uint64 // ref → bloom.HashKey(keys[ref])

	derived sync.Map // Derived's cache
}

// NewInterner builds the interner for the given sites, each serving
// objectsPerSite objects. Refs are assigned site-major in the order sites
// are given: ref = siteIdx·objectsPerSite + num.
func NewInterner(sites []SiteID, objectsPerSite int) *Interner {
	if objectsPerSite <= 0 {
		panic(fmt.Sprintf("model: non-positive objects per site %d", objectsPerSite))
	}
	in := &Interner{
		sites:   append([]SiteID(nil), sites...),
		siteIdx: make(map[SiteID]int, len(sites)),
		perSite: objectsPerSite,
		keys:    make([]string, len(sites)*objectsPerSite),
		h1:      make([]uint64, len(sites)*objectsPerSite),
		h2:      make([]uint64, len(sites)*objectsPerSite),
	}
	for si, site := range in.sites {
		if _, dup := in.siteIdx[site]; dup {
			panic(fmt.Sprintf("model: duplicate site %q", site))
		}
		in.siteIdx[site] = si
		base := si * objectsPerSite
		for num := 0; num < objectsPerSite; num++ {
			key := ObjectID{Site: site, Num: num}.Key()
			in.keys[base+num] = key
			in.h1[base+num], in.h2[base+num] = bloom.HashKey(key)
		}
	}
	return in
}

// Count returns the size of the ref space.
func (in *Interner) Count() int { return len(in.keys) }

// ObjectsPerSite returns the per-site object count.
func (in *Interner) ObjectsPerSite() int { return in.perSite }

// Sites returns the interned sites in ref order. Callers must not mutate.
func (in *Interner) Sites() []SiteID { return in.sites }

// SiteIndex returns the dense index of site, or -1 if unknown.
func (in *Interner) SiteIndex(site SiteID) int {
	if si, ok := in.siteIdx[site]; ok {
		return si
	}
	return -1
}

// SiteBase returns the first ref of the site with dense index si.
func (in *Interner) SiteBase(si int) ObjectRef { return ObjectRef(si * in.perSite) }

// RefFor returns the ref of object num of the site with dense index si.
// It is pure arithmetic — the hot-path mapping from workload coordinates.
func (in *Interner) RefFor(si, num int) ObjectRef {
	return ObjectRef(si*in.perSite + num)
}

// Ref interns an ObjectID. It returns NoRef for unknown sites or
// out-of-range object numbers.
func (in *Interner) Ref(o ObjectID) ObjectRef {
	si, ok := in.siteIdx[o.Site]
	if !ok || o.Num < 0 || o.Num >= in.perSite {
		return NoRef
	}
	return in.RefFor(si, o.Num)
}

// Object recovers the ObjectID of a ref.
func (in *Interner) Object(r ObjectRef) ObjectID {
	return ObjectID{Site: in.sites[int(r)/in.perSite], Num: int(r) % in.perSite}
}

// Site returns the site a ref belongs to.
func (in *Interner) Site(r ObjectRef) SiteID { return in.sites[int(r)/in.perSite] }

// Local returns the ref's object number within its site — the index into
// per-site dense state (content bitsets, holder tables).
func (in *Interner) Local(r ObjectRef) int { return int(r) % in.perSite }

// Key returns the canonical URL-like key string (precomputed; no
// formatting, no allocation).
func (in *Interner) Key(r ObjectRef) string { return in.keys[r] }

// Hashes returns the precomputed bloom.HashKey pair of the ref's key, the
// inputs to Filter.AddHash/TestHash.
func (in *Interner) Hashes(r ObjectRef) (h1, h2 uint64) { return in.h1[r], in.h2[r] }

// Derived returns the value in's cache holds under key, calling build to
// make it on the first request: tables a layer derives from the interned
// objects are built once for every run that shares the interner. Concurrent
// first requests may each build; all of them get the one value stored first.
// A hit allocates nothing (key is boxed only to be stored).
func Derived[K comparable, V any](in *Interner, key K, build func() V) V {
	if v, ok := in.derived.Load(key); ok {
		return v.(V)
	}
	v, _ := in.derived.LoadOrStore(key, build())
	return v.(V)
}
