package main

import (
	"sort"
	"strings"
	"time"

	"flowercdn"
	"flowercdn/internal/trace"
)

// span is one host-time interval recorded by the bench around a call into
// the program: a facade call, a pass, a layer driver. Parent is the index
// of the enclosing span, -1 at the top.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps host spans in memory until the report is written. A nil
// log records nothing.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Parent: parent, StartNs: time.Since(l.origin).Nanoseconds()})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].EndNs = time.Since(l.origin).Nanoseconds()
}

// stageStats summarises one simulated-time stage of the query lifecycle
// over the queries that passed through it.
type stageStats struct {
	Count int     `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// traceCounts is what the protocol trace says about a run besides stages.
type traceCounts struct {
	kinds      [16]int64
	newClients int64 // QuerySubmitted events of clients routed over the D-ring
}

func (c *traceCounts) of(k trace.Kind) float64 { return float64(c.kinds[k]) }

// stageCollector turns traced runs' events into simulated-time spans per
// QueryID and summarises them by stage:
//
//	route  QuerySubmitted → first DirProcess: D-ring routing (new clients)
//	dir    first DirProcess → the dispatch that led to the answer
//	fetch  that dispatch → Served
//
// A dispatch is a Redirect (directory → believed holder), a PeerQuery
// (member → view contact) or a ServerFetch; the last one before Served is
// the one that produced the answer, so directory-side retries after a
// failed redirect lengthen dir, not fetch. Local hits emit no dispatch and
// appear in no stage.
type stageCollector struct {
	durations map[string][]float64 // stage → simulated ms, one per query
	counts    traceCounts
}

// add consumes one run's events, in arrival order (as Buffer.Events
// returns them). QueryIDs are scoped to the run.
func (c *stageCollector) add(events []flowercdn.TraceEvent) {
	type progress struct {
		submitted, dirAt, dispatchAt   flowercdn.Time
		hasSubmit, hasDir, hasDispatch bool
	}
	if c.durations == nil {
		c.durations = map[string][]float64{}
	}
	open := map[uint64]*progress{}
	for _, e := range events {
		if int(e.Kind) < len(c.counts.kinds) {
			c.counts.kinds[e.Kind]++
		}
		if e.QueryID == 0 {
			continue
		}
		q := open[e.QueryID]
		if q == nil {
			q = &progress{}
			open[e.QueryID] = q
		}
		switch e.Kind {
		case trace.QuerySubmitted:
			q.submitted, q.hasSubmit = e.At, true
			if strings.HasPrefix(e.Detail, "new-client") {
				c.counts.newClients++
			}
		case trace.DirProcess:
			if !q.hasDir {
				q.dirAt, q.hasDir = e.At, true
			}
		case trace.Redirect, trace.PeerQuery, trace.ServerFetch:
			q.dispatchAt, q.hasDispatch = e.At, true
		case trace.Served:
			if q.hasSubmit && q.hasDir {
				c.durations["route"] = append(c.durations["route"], float64(q.dirAt-q.submitted))
			}
			if q.hasDir && q.hasDispatch {
				c.durations["dir"] = append(c.durations["dir"], float64(q.dispatchAt-q.dirAt))
			}
			if q.hasDispatch {
				c.durations["fetch"] = append(c.durations["fetch"], float64(e.At-q.dispatchAt))
			}
			delete(open, e.QueryID)
		}
	}
}

// stats summarises every stage; it sorts the collected durations in place.
func (c *stageCollector) stats() map[string]stageStats {
	stages := map[string]stageStats{}
	for _, name := range stageNames {
		d := c.durations[name]
		sort.Float64s(d)
		st := stageStats{Count: len(d)}
		if len(d) > 0 {
			st.P50Ms = d[len(d)/2]
			st.P99Ms = d[len(d)*99/100]
			st.MaxMs = d[len(d)-1]
		}
		stages[name] = st
	}
	return stages
}
