package core

import (
	"fmt"

	"flowercdn/internal/metrics"
	"flowercdn/internal/model"
	"flowercdn/internal/simnet"
	"flowercdn/internal/trace"
)

// Formatted trace emissions, one tiny method per event shape. Each checks
// the tracer before formatting, and takes typed arguments (no ...any), so
// a call with tracing disabled boxes nothing and allocates nothing —
// TestTraceDisabledAllocs pins that to 0 allocs/op. Constant-string
// events go through s.trace directly.

func (s *System) traceQuerySubmitted(q *Query, member bool) {
	if !s.tracing() {
		return
	}
	kind := "new-client "
	if member {
		kind = "member "
	}
	s.trace(trace.QuerySubmitted, q.ID, q.Origin, -1, kind+s.in.Key(q.Ref))
}

func (s *System) traceDirProcess(q *Query, h *host) {
	if !s.tracing() {
		return
	}
	s.trace(trace.DirProcess, q.ID, h.addr, -1,
		fmt.Sprintf("d(%s,%d)", h.dir.Site(), h.dir.Locality()))
}

func (s *System) traceServed(q *Query, provider simnet.NodeID, src metrics.Source, lookup, dist float64) {
	if !s.tracing() {
		return
	}
	s.trace(trace.Served, q.ID, provider, q.Origin,
		fmt.Sprintf("%s lookup=%.0fms dist=%.0fms", src, lookup, dist))
}

func (s *System) traceJoined(q *Query, h *host, dir simnet.NodeID, founding bool) {
	if !s.tracing() {
		return
	}
	if founding {
		s.trace(trace.Joined, q.ID, h.addr, dir,
			fmt.Sprintf("founding content-overlay(%s,%d)", q.Site, q.OriginLoc))
		return
	}
	s.trace(trace.Joined, q.ID, h.addr, dir,
		fmt.Sprintf("content-overlay(%s,%d)", q.Site, q.OriginLoc))
}

func (s *System) traceDirSilent(h *host) {
	if !s.tracing() {
		return
	}
	s.trace(trace.DirFailureDetected, 0, h.addr, -1,
		fmt.Sprintf("d(%s,%d) silent", h.cp.Site(), h.cp.Locality()))
}

func (s *System) traceDirReplaced(h *host) {
	if !s.tracing() {
		return
	}
	s.trace(trace.DirReplaced, 0, h.addr, -1,
		fmt.Sprintf("took over d(%s,%d)", h.cp.Site(), h.cp.Locality()))
}

func (s *System) traceDirHandoff(oldAddr, newAddr simnet.NodeID, site model.SiteID, loc int) {
	if !s.tracing() {
		return
	}
	s.trace(trace.DirHandoff, 0, oldAddr, newAddr,
		fmt.Sprintf("d(%s,%d) voluntary leave", site, loc))
}

func (s *System) traceStandbyPromoted(h *host) {
	if !s.tracing() {
		return
	}
	s.trace(trace.DirReplaced, 0, h.addr, -1,
		fmt.Sprintf("standby promoted to d(%s,%d)", h.dir.Site(), h.dir.Locality()))
}

func (s *System) tracePrefetch(h *host, ref model.ObjectRef) {
	if !s.tracing() {
		return
	}
	s.trace(trace.Prefetch, 0, h.addr, -1, s.in.Key(ref))
}
