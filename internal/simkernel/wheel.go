package simkernel

import "math/bits"

// wheelSize is the near horizon in milliseconds and the number of buckets. A
// constant chosen by measurement (README "Performance", PR 15), not a knob:
// 4096 covers a 2·RTT+50 ms deadline at the 1 s RTT cap, and its 64 words of
// occupancy fit one summary word.
const (
	wheelSize  = 4096
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// wheelNode is one pending near record, linked into its bucket's ring.
type wheelNode struct {
	ev   event
	next uint32
}

// wheel is a single-level timing wheel of one-millisecond buckets. The clock
// never passes a pending record, so every record in it is due in
// [now, now+wheelSize): bucket at&wheelMask holds one instant only and
// circular order from now&wheelMask is time order. No cursor moves, so peek
// is read-only.
type wheel struct {
	tail    [wheelSize]uint32  // per bucket, its newest node; that node's next is the oldest. 0 = empty
	words   [wheelWords]uint64 // bit b: bucket b is occupied
	summary uint64             // bit w: words[w] != 0
	nodes   []wheelNode        // slab; index 0 is the nil sentinel New puts there
	free    uint32             // free list threaded through next
}

func (w *wheel) push(e event) {
	n := w.free
	if n != 0 {
		w.free = w.nodes[n].next
	} else {
		n = uint32(len(w.nodes))
		w.nodes = append(w.nodes, wheelNode{})
	}
	b := uint32(e.at) & wheelMask
	if t := w.tail[b]; t != 0 {
		w.nodes[n] = wheelNode{e, w.nodes[t].next}
		w.nodes[t].next = n
	} else {
		w.nodes[n] = wheelNode{e, n}
		w.words[b>>6] |= 1 << (b & 63)
		w.summary |= 1 << (b >> 6)
	}
	w.tail[b] = n
}

// peek returns the oldest record of the first occupied bucket at or after
// now: the wheel's minimum under event.before.
func (w *wheel) peek(now Time) (event, bool) {
	if w.summary == 0 {
		return event{}, false
	}
	from := uint32(now) & wheelMask
	wi := from >> 6
	var b uint32
	if m := w.words[wi] >> (from & 63); m != 0 {
		b = from + uint32(bits.TrailingZeros64(m))
	} else {
		// The words after wi, wrapping round to wi's own low bits last.
		s := w.summary>>(wi+1) | w.summary<<(wheelWords-1-wi)
		wi = (wi + 1 + uint32(bits.TrailingZeros64(s))) & (wheelWords - 1)
		b = wi<<6 + uint32(bits.TrailingZeros64(w.words[wi]))
	}
	return w.nodes[w.nodes[w.tail[b]].next].ev, true
}

// pop drops the oldest record of the bucket of instant at (what peek returned).
func (w *wheel) pop(at Time) {
	b := uint32(at) & wheelMask
	t := w.tail[b]
	h := w.nodes[t].next
	if h != t {
		w.nodes[t].next = w.nodes[h].next
	} else {
		w.tail[b] = 0
		if w.words[b>>6] &^= 1 << (b & 63); w.words[b>>6] == 0 {
			w.summary &^= 1 << (b >> 6)
		}
	}
	w.nodes[h].next, w.free = w.free, h
}
