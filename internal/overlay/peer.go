// Package overlay implements the content-overlay side of the paper's
// contribution (§4): the state machine of a content peer c(ws,loc) — its
// stored content, the content summary, the bounded gossip view with the
// special directory entry, the active/passive gossip behaviours of
// Algorithm 4 and the push behaviour of Algorithm 5.
//
// Like internal/dring, this package contains no networking: it builds and
// consumes protocol messages as values, and the core system moves them
// across the simulated network. That separation keeps every protocol rule
// unit-testable without a simulator.
//
// Content identity is interned (model.ObjectRef): a peer serves one
// website, whose ObjectsPerSite objects map to a dense local index, so
// stored content and the un-pushed additions and removals are three
// bitsets. The Bloom content summary (8·nb-ob bits, Summary Cache) stays
// with its owner; what messages and views carry, once the filter is longer
// than a cache line, is its answer set, one bit per object of the website
// saying whether the filter tests positive for it (DESIGN.md "Content
// summaries: the Bloom filter stays with its owner"). Both are built from
// precomputed hashes instead of hashing URL strings.
package overlay

import (
	"math/rand"
	"slices"

	"flowercdn/internal/bitset"
	"flowercdn/internal/bloom"
	"flowercdn/internal/gossip"
	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// Config holds the gossip parameters of Table 1.
type Config struct {
	ViewSize        int     // V_gossip: max contacts in the view
	GossipLen       int     // L_gossip: view subset exchanged per round
	PushThreshold   float64 // fraction of changed content triggering a push
	SummaryCapacity int     // nb-ob: sizing of Bloom summaries (8·nb-ob bits)
}

// DefaultConfig returns the paper's chosen operating point (§6.2):
// V_gossip=50, L_gossip=10, push threshold 0.1.
func DefaultConfig() Config {
	return Config{ViewSize: 50, GossipLen: 10, PushThreshold: 0.1, SummaryCapacity: 500}
}

// SummaryBytes is the wire size charged for every content summary under
// this configuration: the owner's Bloom filter, whose answers a message
// carries.
func (c Config) SummaryBytes() int { return bloom.BytesForCapacity(c.SummaryCapacity) }

// DirInfo is the special view entry for the directory peer (§4.2.1): only
// address and age, gossiped alongside regular entries so the overlay
// agrees on who the directory is, especially across replacements (§5.2).
type DirInfo struct {
	Addr  simnet.NodeID
	Age   int32
	Known bool
}

// WireBytes models the serialized size of the directory entry.
func (d DirInfo) WireBytes() int { return 8 }

// GossipMsg is one gossip exchange message (either direction of Algorithm
// 4): the sender's current content summary, a subset of its view, and its
// directory entry.
type GossipMsg struct {
	From       simnet.NodeID
	Summary    *bloom.Filter
	ViewSubset []gossip.Entry
	Dir        DirInfo
	IsReply    bool
	Lease      Lease // on the sender's overlay, ended once merged, rejected or lost
}

// WireBytes models the message size for traffic accounting: a 20-byte
// header, the sender summary, the subset entries and the directory entry.
// summaryBytes is the overlay's Config.SummaryBytes: the size is counted
// from which summaries are present, without dereferencing any.
func (m GossipMsg) WireBytes(summaryBytes int) int {
	n := 20 + m.Dir.WireBytes() + gossip.WireBytes(m.ViewSubset, summaryBytes)
	if m.Summary != nil {
		n += summaryBytes
	}
	return n
}

// PushMsg is the ∆list push of Algorithm 5, carrying interned refs.
type PushMsg struct {
	From    simnet.NodeID
	Added   []model.ObjectRef
	Removed []model.ObjectRef
}

// WireBytes: 20-byte header + 4 bytes per object identifier. Since PR 3
// object identity travels as an interned model.ObjectRef (uint32); the
// 8-byte charge of the string-keyed era overstated ∆list pushes by
// 4 bytes per identifier.
func (m PushMsg) WireBytes() int { return 20 + 4*(len(m.Added)+len(m.Removed)) }

// maxFresh bounds the list of objects stored since the last summary
// snapshot; a peer that stores more between two publications rebuilds.
const maxFresh = 6

// rebuildSummary in ContentPeer.nFresh: the snapshot cannot be extended.
const rebuildSummary = -1

// Shared is what the members of one content overlay c(ws,loc) have in
// common: website, locality, gossip parameters, the site's place in the
// interned object space, the site's probe table when its summaries are answer
// sets, and the summary blocks they recycle. Whoever owns the peers builds it
// once per overlay (the core system keeps a table per System).
type Shared struct {
	site   model.SiteID
	loc    int
	cfg    Config
	in     *model.Interner
	probes *probeTable
	spare  []*bloom.Filter
	limbo  [2][]*bloom.Filter // by epoch
	open   [2]int32           // leases by epoch
	base   model.ObjectRef    // first ref of the site
	epoch  uint8
}

// NewShared describes the overlay of (site, loc). The interner must cover
// the site; it defines the dense object space content state is indexed by.
func NewShared(site model.SiteID, loc int, cfg Config, in *model.Interner) *Shared {
	si := in.SiteIndex(site)
	if si < 0 {
		panic("overlay: site not covered by interner")
	}
	sh := &Shared{site: site, loc: loc, cfg: cfg, in: in, base: in.SiteBase(si)}
	if mBits := 8 * cfg.SummaryBytes(); mBits > maxFilterBits {
		sh.probes = probeTableFor(in, si, mBits, bloom.OptimalHashes(8))
	}
	return sh
}

// maxFilterBits is the longest Bloom filter an overlay publishes as it is.
// A lookup's probes into one 64-byte cache line cost no more than reading an
// answer bit, and the filter is cheaper to publish, so only overlays with
// longer filters publish answer sets (DESIGN.md "Content summaries: the Bloom
// filter stays with its owner").
const maxFilterBits = 512

// snapshot returns an empty summary in the overlay's form: an answer set, or
// the Bloom filter itself when the overlay has no probe table.
func (sh *Shared) snapshot() *bloom.Filter {
	if sh.probes == nil {
		return bloom.NewForCapacity(sh.cfg.SummaryCapacity)
	}
	return bloom.NewAnswers(sh.in.ObjectsPerSite())
}

// ownForm reports whether f has the form of the overlay's summaries.
func (sh *Shared) ownForm(f *bloom.Filter) bool {
	if sh.probes == nil {
		return f.Bits() == 8*sh.cfg.SummaryBytes() && f.Hashes() == bloom.OptimalHashes(8)
	}
	return f.Bits() == sh.in.ObjectsPerSite() && f.Hashes() == 0
}

const maxSpares = 8 // bounds the spare and limbo lists (docs/perf-log.md, PR 25)

// release gives back a reference to f. A summary of the overlay's form whose
// last holder — owner or view slot — let go waits in the current epoch's
// limbo, as open messages may carry it; if it waited in the older one, a
// receiver took it up again since, and newer messages may carry it too. Peers
// that exchange summaries share one Shared.
func (sh *Shared) release(f *bloom.Filter) {
	if !f.Release() || !sh.ownForm(f) {
		return
	}
	sh.limbo[sh.epoch^1] = slices.DeleteFunc(sh.limbo[sh.epoch^1], func(g *bloom.Filter) bool { return g == f })
	if cur := sh.limbo[sh.epoch]; len(cur) < maxSpares && !slices.Contains(cur, f) {
		sh.limbo[sh.epoch] = append(cur, f)
	}
	sh.settle()
}

// settle makes spares of the older epoch's limbo once none of its leases is
// open (the flip into the current epoch waited for the one before), and flips.
func (sh *Shared) settle() {
	old := sh.epoch ^ 1
	if sh.open[old] > 0 {
		return
	}
	for _, f := range sh.limbo[old] {
		if f.Refs() == 0 && len(sh.spare) < maxSpares {
			sh.spare = append(sh.spare, f)
		}
	}
	sh.limbo[old], sh.epoch = slices.Delete(sh.limbo[old], 0, len(sh.limbo[old])), old
}

// A Lease is an open message's or seed's place in its epoch's count, held
// instead of a reference per summary (see release); the zero Lease holds none.
type Lease struct{ open *int32 }

func (sh *Shared) lease() Lease {
	sh.settle()
	sh.open[sh.epoch]++
	return Lease{&sh.open[sh.epoch]}
}

// End closes the lease, once its message is merged, rejected or lost.
func (l Lease) End() {
	if l.open != nil {
		*l.open--
	}
}

// ContentPeer is the protocol state of one c(ws,loc): this struct, one word
// array behind its three bitsets and the view's slot array. What it shares
// with the rest of its overlay sits behind one pointer.
type ContentPeer struct {
	sh *Shared

	// Bit state by local index, carved from one array: the stored objects
	// and the net un-pushed changes. Tracking the *net* effect (an object
	// is in at most one of added/removed) rather than an append log keeps
	// ∆lists replayable in any order.
	content, added, removed bitset.Set

	// summary is the immutable snapshot last published (the peer holds a
	// reference); fresh[:nFresh] are the objects stored since, which the next
	// publication adds to a copy of it. nFresh == rebuildSummary when that is
	// not enough: nothing was published yet, an object was removed (a Bloom
	// filter cannot delete) or fresh overflowed.
	summary *bloom.Filter
	fresh   [maxFresh]int32
	nFresh  int8

	view gossip.View
	dir  DirInfo

	joinedAt simkernel.Time
}

// New creates a content peer that joined at the given time, with a
// descriptor of its own: the one-peer form of NewShared + NewPeer.
func New(addr simnet.NodeID, site model.SiteID, loc int, cfg Config, joinedAt simkernel.Time, in *model.Interner) *ContentPeer {
	return NewShared(site, loc, cfg, in).NewPeer(addr, joinedAt)
}

// NewPeer creates a member of the overlay that joined at the given time.
func (sh *Shared) NewPeer(addr simnet.NodeID, joinedAt simkernel.Time) *ContentPeer {
	n := sh.in.ObjectsPerSite()
	nw := bitset.Words(n)
	words := make([]uint64, 3*nw)
	return &ContentPeer{
		sh:       sh,
		content:  bitset.Over(words[:nw:nw], n),
		added:    bitset.Over(words[nw:2*nw:2*nw], n),
		removed:  bitset.Over(words[2*nw:], n),
		nFresh:   rebuildSummary,
		view:     gossip.MakeView(addr, sh.cfg.ViewSize),
		joinedAt: joinedAt,
	}
}

// Addr returns the peer's network address, its view's owner.
func (c *ContentPeer) Addr() simnet.NodeID { return c.view.Owner() }

// Site returns the website the peer supports.
func (c *ContentPeer) Site() model.SiteID { return c.sh.site }

// Locality returns the peer's measured locality.
func (c *ContentPeer) Locality() int { return c.sh.loc }

// JoinedAt returns the join time (used for replacement-candidate ranking,
// §5.2: "peer stability").
func (c *ContentPeer) JoinedAt() simkernel.Time { return c.joinedAt }

// View exposes the gossip view (read-mostly; mutations go through the
// protocol methods).
func (c *ContentPeer) View() *gossip.View { return &c.view }

// local maps a ref to the peer's per-site dense index. Refs of other
// sites map outside [0, ObjectsPerSite); like dring.Directory, the
// content API treats them as not-stored no-ops rather than panicking —
// mis-routed messages must degrade the way the string-keyed maps did.
func (c *ContentPeer) local(ref model.ObjectRef) int { return int(ref) - int(c.sh.base) }

func (c *ContentPeer) inRange(ref model.ObjectRef) bool {
	i := c.local(ref)
	return i >= 0 && i < c.content.Cap()
}

// --- Content management (§4.1) ------------------------------------------

// Has reports whether the peer stores ref. Refs of other sites are never
// stored and report false.
func (c *ContentPeer) Has(ref model.ObjectRef) bool {
	return c.content.Has(c.local(ref))
}

// ContentSize returns the number of stored objects.
func (c *ContentPeer) ContentSize() int { return c.content.Count() }

// AppendObjects appends the stored object refs to dst in ascending
// (canonical key) order.
func (c *ContentPeer) AppendObjects(dst []model.ObjectRef) []model.ObjectRef {
	c.content.ForEach(func(i int) {
		dst = append(dst, c.sh.base+model.ObjectRef(i))
	})
	return dst
}

// Objects is AppendObjects into a fresh slice, for callers that keep it.
func (c *ContentPeer) Objects() []model.ObjectRef {
	return c.AppendObjects(make([]model.ObjectRef, 0, c.content.Count()))
}

// AddObject stores a retrieved object ("peers keep the web-pages they
// retrieve") and records the change for the next push.
func (c *ContentPeer) AddObject(ref model.ObjectRef) {
	if !c.inRange(ref) {
		return // foreign-site ref: this peer cannot store it
	}
	i := c.local(ref)
	if !c.content.Set(i) {
		return // duplicate
	}
	if !c.removed.Clear(i) { // remove+add within one window cancels out
		c.added.Set(i)
	}
	if c.nFresh >= 0 && c.nFresh < maxFresh {
		c.fresh[c.nFresh] = int32(i)
		c.nFresh++
	} else {
		c.nFresh = rebuildSummary
	}
}

// RemoveObject evicts an object (cache replacement is out of the paper's
// scope but the ∆list protocol supports deletions, §4.2).
func (c *ContentPeer) RemoveObject(ref model.ObjectRef) {
	if !c.inRange(ref) {
		return // foreign-site ref: never stored
	}
	i := c.local(ref)
	if !c.content.Clear(i) {
		return // absent
	}
	if !c.added.Clear(i) {
		c.removed.Set(i)
	}
	c.nFresh = rebuildSummary
}

// Summary returns the current content summary, the Bloom filter over the
// peer's content list or, past maxFilterBits, its answer set: bit i says
// whether the filter tests positive for the site's i-th object. It is an
// immutable snapshot while held (Retain): after a content change a new
// instance is published, into a spare block when the overlay has one (see
// publish).
func (c *ContentPeer) Summary() *bloom.Filter {
	if c.nFresh == 0 {
		return c.summary
	}
	var f *bloom.Filter
	if n := len(c.sh.spare); n > 0 {
		f, c.sh.spare = c.sh.spare[n-1], c.sh.spare[:n-1]
		f.Reset()
	} else {
		f = c.sh.snapshot()
	}
	c.publish(f)
	f.Retain()
	c.sh.release(c.summary)
	c.summary, c.nFresh = f, 0
	return f
}

// --- Push behaviour (Algorithm 5) ----------------------------------------

// NeedPush reports whether the fraction of un-pushed changes reached the
// push threshold.
func (c *ContentPeer) NeedPush() bool {
	changes := c.PendingChanges()
	if changes == 0 {
		return false
	}
	base := c.content.Count()
	if base < 1 {
		base = 1
	}
	return float64(changes)/float64(base) >= c.sh.cfg.PushThreshold
}

// TakePush extracts the ∆list and resets the change counter (Algorithm 5's
// extract_changes), appending the lists — in ascending canonical order —
// to added and removed (nil for fresh slices): a caller that gets its
// message back, like the core system with its pooled push envelopes,
// extracts without allocating. ok=false means there was nothing to push;
// the message still carries added and removed.
func (c *ContentPeer) TakePush(added, removed []model.ObjectRef) (PushMsg, bool) {
	msg := PushMsg{From: c.Addr(), Added: added, Removed: removed}
	if c.PendingChanges() == 0 {
		return msg, false
	}
	c.added.ForEach(func(i int) { msg.Added = append(msg.Added, c.sh.base+model.ObjectRef(i)) })
	c.removed.ForEach(func(i int) { msg.Removed = append(msg.Removed, c.sh.base+model.ObjectRef(i)) })
	c.added.Reset()
	c.removed.Reset()
	return msg, true
}

// PendingChanges reports the number of un-pushed content changes.
func (c *ContentPeer) PendingChanges() int { return c.added.Count() + c.removed.Count() }

// --- Directory entry management (§4.2.1, §5.2) ---------------------------

// Dir returns the current directory entry.
func (c *ContentPeer) Dir() DirInfo { return c.dir }

// SetDir installs a directory peer at age zero (at join, or when a
// replacement is discovered).
func (c *ContentPeer) SetDir(addr simnet.NodeID) {
	c.dir = DirInfo{Addr: addr, Age: 0, Known: true}
}

// RefreshDir resets the directory age (after a successful push or
// keepalive round trip).
func (c *ContentPeer) RefreshDir() { c.dir.Age = 0 }

// ForgetDir clears the directory entry (observed failure).
func (c *ContentPeer) ForgetDir() { c.dir = DirInfo{} }

// ConsiderDir adopts gossiped directory information when it is fresher
// than ours or when we have none (how replacement directories propagate
// through the overlay, §5.2).
func (c *ContentPeer) ConsiderDir(d DirInfo) {
	if !d.Known {
		return
	}
	if !c.dir.Known || d.Age < c.dir.Age {
		c.dir = d
	}
}

// --- Gossip behaviour (Algorithm 4) --------------------------------------

// TickAges ages the view and the directory entry by one gossip period.
func (c *ContentPeer) TickAges() {
	c.view.IncrementAges()
	if c.dir.Known {
		c.dir.Age++
	}
}

// MakeGossip performs the sending half of the active behaviour: select the
// oldest contact as the gossip target and build the message (own current
// summary + random view subset + directory entry). ok=false when the view
// is empty. The subset is built by appending into subsetBuf (may be nil),
// so a caller that gets its message buffers back — like the core system,
// which pools them alongside gossip envelopes — gossips without
// allocating.
func (c *ContentPeer) MakeGossip(rng *rand.Rand, subsetBuf []gossip.Entry) (target simnet.NodeID, msg GossipMsg, ok bool) {
	oldest, ok := c.view.SelectOldest()
	if !ok {
		return 0, GossipMsg{}, false
	}
	return oldest.Node, c.outgoing(rng, subsetBuf, false), true
}

// outgoing is this peer's half of an exchange: summary, subset, directory.
func (c *ContentPeer) outgoing(rng *rand.Rand, subsetBuf []gossip.Entry, reply bool) GossipMsg {
	return GossipMsg{From: c.Addr(), Summary: c.Summary(), ViewSubset: c.view.SelectSubsetAppend(rng, c.sh.cfg.GossipLen, subsetBuf),
		Dir: c.dir, IsReply: reply, Lease: c.sh.lease()}
}

// AcceptGossip performs the passive behaviour: build the answer message
// (its subset appended into subsetBuf, which may be nil — see MakeGossip),
// then merge the received information (view subset + a fresh entry for the
// sender) and consider the gossiped directory entry.
func (c *ContentPeer) AcceptGossip(msg GossipMsg, rng *rand.Rand, subsetBuf []gossip.Entry) GossipMsg {
	reply := c.outgoing(rng, subsetBuf, true)
	c.mergeGossip(msg)
	return reply
}

// ApplyGossipReply finishes the active behaviour when the partner's answer
// arrives.
func (c *ContentPeer) ApplyGossipReply(msg GossipMsg) { c.mergeGossip(msg) }

func (c *ContentPeer) mergeGossip(msg GossipMsg) {
	c.view.MergeWith(c.sh.release, msg.ViewSubset, gossip.Entry{Node: msg.From, Age: 0, Summary: msg.Summary})
	c.ConsiderDir(msg.Dir)
}

// SeedView initialises the view of a freshly joined peer from entries
// provided by the peer that served it (a subset of that peer's view) or by
// the directory peer (a subset of its index, without summaries) — §4.2.
func (c *ContentPeer) SeedView(entries []gossip.Entry) { c.view.MergeWith(c.sh.release, entries) }

// Leave gives back the view's references and the peer's own, for good.
func (c *ContentPeer) Leave() {
	c.view.DropOlderThan(c.sh.release, 0)
	c.sh.release(c.summary)
}

// Published returns the last published snapshot (nil: none) without publishing.
func (c *ContentPeer) Published() *bloom.Filter { return c.summary }

// RemoveContact drops a dead or relocated contact (§5.1, §5.4).
func (c *ContentPeer) RemoveContact(node simnet.NodeID) { c.view.Remove(c.sh.release, node) }

// DropOldContacts evicts view entries at or beyond the age limit and
// reports how many went.
func (c *ContentPeer) DropOldContacts(age int) int { return c.view.DropOlderThan(c.sh.release, age) }

// CandidatesFor returns contacts whose summaries test positive for ref, in
// a load-spreading random order (§4.1: replicas of popular objects spread
// the load across holders), as a freshly allocated slice of their number.
func (c *ContentPeer) CandidatesFor(ref model.ObjectRef, rng *rand.Rand) []simnet.NodeID {
	var buf [64]simnet.NodeID
	return slices.Clone(c.AppendCandidates(buf[:0], ref, rng))
}

// AppendCandidates is CandidatesFor appending to dst (allocation-free
// once dst has room for a view's worth of contacts): the core system keeps
// candidate lists in storage that lives as long as their query. An answer
// set is read at the ref's local index, a Bloom filter a view was seeded
// with is probed with the ref's precomputed hashes; the shuffle draws from
// rng exactly as CandidatesFor does. A ref of another site has none: no
// member stores it (see AddObject), so any positive summary would be a
// false one.
func (c *ContentPeer) AppendCandidates(dst []simnet.NodeID, ref model.ObjectRef, rng *rand.Rand) []simnet.NodeID {
	if !c.inRange(ref) {
		return dst
	}
	h1, h2 := c.sh.in.Hashes(ref)
	base := len(dst)
	dst = c.view.AppendMatching(dst, c.local(ref), h1, h2)
	cands := dst[base:]
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	return dst
}

// ViewSeedFor appends to dst (nil for a fresh slice) the view subset handed
// to a newly joined peer that this peer just served, including this peer
// itself as a fresh entry, and the lease the seed travels under.
func (c *ContentPeer) ViewSeedFor(rng *rand.Rand, dst []gossip.Entry) ([]gossip.Entry, Lease) {
	if cap(dst) == 0 {
		dst = make([]gossip.Entry, 0, c.sh.cfg.GossipLen+1) // the subset and this peer, sized once
	}
	dst = c.view.SelectSubsetAppend(rng, c.sh.cfg.GossipLen, dst)
	return append(dst, gossip.Entry{Node: c.Addr(), Age: 0, Summary: c.Summary()}), c.sh.lease()
}
