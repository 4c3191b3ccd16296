package trace

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"flowercdn/internal/metrics"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

func TestKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestBufferOrder(t *testing.T) {
	b := NewBuffer(10)
	for i := 0; i < 5; i++ {
		b.Record(Record{Query: uint64(i + 1), Peer: -1})
	}
	evs := b.Events()
	if len(evs) != 5 || b.Len() != 5 || b.Total() != 5 {
		t.Fatalf("len=%d total=%d", b.Len(), b.Total())
	}
	for i, e := range evs {
		if e.QueryID != uint64(i+1) {
			t.Fatalf("order wrong: %v", evs)
		}
	}
}

func TestBufferWrap(t *testing.T) {
	b := NewBuffer(3)
	for i := 1; i <= 7; i++ {
		b.Record(Record{Query: uint64(i), Peer: -1})
	}
	evs := b.Events()
	if len(evs) != 3 || b.Total() != 7 {
		t.Fatalf("retained %d, total %d", len(evs), b.Total())
	}
	want := []uint64{5, 6, 7}
	for i, e := range evs {
		if e.QueryID != want[i] {
			t.Fatalf("wrap order = %v, want %v", evs, want)
		}
	}
}

func TestQueryTraceAndFilter(t *testing.T) {
	b := NewBuffer(32)
	b.Record(Record{Kind: QuerySubmitted, Query: 1, Peer: -1})
	b.Record(Record{Kind: RouteHop, Query: 1, Peer: 5})
	b.Record(Record{Kind: QuerySubmitted, Query: 2, Peer: -1})
	b.Record(Record{Kind: Served, Query: 1, Peer: -1})
	q1 := b.QueryTrace(1)
	if len(q1) != 3 {
		t.Fatalf("q1 trace = %d events, want 3", len(q1))
	}
	if evs := b.Events(); len(evs) != 4 || evs[1].Kind != RouteHop || evs[1].Peer != 5 || evs[3].QueryID != 1 {
		t.Fatalf("events wrong: %v", evs)
	}
}

func TestFormatting(t *testing.T) {
	e := Event{At: 1500, Kind: Redirect, QueryID: 9, Node: 3, Peer: 7, Detail: "holder"}
	s := e.String()
	for _, want := range []string{"redirect", "q9", "node 3", "node 7", "holder"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
	if !strings.Contains(Format([]Event{e}), "\n") {
		t.Fatal("Format should newline-terminate")
	}
	// Peer = -1 suppresses the arrow.
	e2 := Event{Kind: Served, Node: 1, Peer: -1}
	if strings.Contains(e2.String(), "->") {
		t.Fatal("no-peer event should not render an arrow")
	}
}

func TestZeroCapacity(t *testing.T) {
	b := NewBuffer(0)
	b.Record(Record{Query: 1, Peer: -1})
	b.Record(Record{Query: 2, Peer: -1})
	if b.Len() != 1 || b.Events()[0].QueryID != 2 {
		t.Fatal("degenerate capacity should keep the newest event")
	}
}

// Property: the buffer always retains the most recent min(cap, total)
// events in order.
func TestQuickBufferRetention(t *testing.T) {
	prop := func(capRaw uint8, n uint8) bool {
		capacity := int(capRaw%16) + 1
		b := NewBuffer(capacity)
		for i := 1; i <= int(n); i++ {
			b.Record(Record{Query: uint64(i), Peer: -1})
		}
		evs := b.Events()
		want := int(n)
		if want > capacity {
			want = capacity
		}
		if len(evs) != want {
			return false
		}
		for i, e := range evs {
			if e.QueryID != uint64(int(n)-want+i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refDetail is how the core built each kind's Detail with fmt when the
// event happened, before records were rendered on read: the reference the
// rendered text must match byte for byte. key is the object key, (site,
// loc) the directory or overlay the event names.
func refDetail(k Kind, v Variant, key, site string, loc int, lookup, dist float64) string {
	switch k {
	case QuerySubmitted:
		kind := "new-client "
		if v == Member {
			kind = "member "
		}
		return kind + key
	case DirProcess:
		return fmt.Sprintf("d(%s,%d)", site, loc)
	case Served:
		return fmt.Sprintf("%s lookup=%.0fms dist=%.0fms", metrics.Source(v), lookup, dist)
	case Joined:
		if v == Founding {
			return fmt.Sprintf("founding content-overlay(%s,%d)", site, loc)
		}
		return fmt.Sprintf("content-overlay(%s,%d)", site, loc)
	case DirFailureDetected:
		return fmt.Sprintf("d(%s,%d) silent", site, loc)
	case DirReplaced:
		if v == StandbyPromoted {
			return fmt.Sprintf("standby promoted to d(%s,%d)", site, loc)
		}
		return fmt.Sprintf("took over d(%s,%d)", site, loc)
	case DirHandoff:
		return fmt.Sprintf("d(%s,%d) voluntary leave", site, loc)
	case ServerFetch:
		if v == ViewExhausted {
			return "view exhausted"
		}
		return "directory fallback"
	case RedirectFailed:
		return "timeout"
	case PeerNack:
		return "stale summary or false positive"
	}
	return ""
}

// kindVariants lists every text variant of each kind.
func kindVariants(k Kind) []Variant {
	switch k {
	case QuerySubmitted:
		return []Variant{0, Member}
	case ServerFetch:
		return []Variant{0, ViewExhausted}
	case Joined:
		return []Variant{0, Founding}
	case DirReplaced:
		return []Variant{0, StandbyPromoted}
	case Served:
		return []Variant{Variant(metrics.SourceLocal), Variant(metrics.SourcePeer),
			Variant(metrics.SourceRemoteOverlay), Variant(metrics.SourceServer)}
	}
	return []Variant{0}
}

// TestRenderMatchesFormattedDetail renders every kind × variant from a
// record and requires the Detail and the transcript line to be byte-equal
// to the fmt forms the events carried before, including Served's
// round-half-to-even milliseconds, query 0 and peer -1.
func TestRenderMatchesFormattedDetail(t *testing.T) {
	ms := []float64{0, 0.5, 1.5, 2.5, 3.5, 0.49999999999999994, 12, 34.4999, 34.5, 35.5, 299.25, 86_399_999.5}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		ms = append(ms, float64(rng.Intn(200_000))/2, rng.Float64()*1e5)
	}
	const key = "ws-007/o42"
	cases := 0
	for k := Kind(0); k < numKinds; k++ {
		for _, v := range kindVariants(k) {
			for i, site := range []string{"ws-001", "ws-117"} {
				for _, loc := range []int{0, 2, 11} {
					lookups, dists := ms[:1], ms[:1]
					if k == Served {
						lookups, dists = ms, ms[len(ms)/2:]
					}
					for _, lookup := range lookups {
						for _, dist := range dists {
							r := Record{At: simkernel.Time(1500 * i), Kind: k, Variant: v, Node: 3,
								Peer: simnet.NodeID(i*8 - 1), Query: uint64(i * 9),
								Str: site, Loc: int32(loc), Args: [2]int32{Ms(lookup), Ms(dist)}}
							if k == QuerySubmitted {
								r.Str = key
							}
							want := refDetail(k, v, key, site, loc, lookup, dist)
							if got := r.Detail(); got != want {
								t.Fatalf("%s variant %d (lookup %v, dist %v): rendered %q, want %q", k, v, lookup, dist, got, want)
							}
							e := Event{At: r.At, Kind: k, QueryID: r.Query, Node: r.Node, Peer: r.Peer, Detail: want}
							if got := r.Event(); got != e || got.String() != e.String() {
								t.Fatalf("%s variant %d: event %q, want %q", k, v, got, e)
							}
							cases++
						}
					}
				}
			}
		}
	}
	if cases < 20_000 {
		t.Fatalf("only %d cases rendered", cases)
	}
}
