package service

import (
	"encoding/json"
	"net/http"
	"strconv"

	"introspect/internal/analysis"
	"introspect/internal/obs"
)

// Trace-context headers. A traced forward carries all three: the
// request ID (also used as the trace ID when the client supplied
// none), and the forwarding node's span under which the remote node's
// root span nests. Together they let the origin stitch both nodes'
// span rings into one Perfetto-loadable document.
const (
	// TraceIDHeader names the distributed trace a forwarded request
	// belongs to.
	TraceIDHeader = "X-Ptad-Trace-Id"
	// ParentSpanHeader is the forwarding node's span ID; the receiving
	// node parents its root request span under it.
	ParentSpanHeader = "X-Ptad-Parent-Span"
)

// reqTrace is one traced request's private tracer: its own ring (so
// concurrent requests never interleave), a root "request" span, and
// the node identity the exported events are labeled with.
type reqTrace struct {
	id     string
	node   string
	tracer *obs.Tracer
	track  *obs.Track
	root   *obs.Span
}

// startReqTrace builds the request's tracer. The trace ID is the
// inbound X-Ptad-Trace-Id when a peer (or client) supplied one, else
// the request's own correlation ID; span IDs are seeded from a hash of
// (node, request ID) so the two tracers contributing to a stitched
// cross-node trace cannot collide.
func (s *Service) startReqTrace(r *http.Request, reqID string) *reqTrace {
	node := s.nodeName()
	tracer := obs.NewTracer(4096)
	traceID := sanitizeRequestID(r.Header.Get(TraceIDHeader))
	if traceID == "" {
		traceID = reqID
	}
	tracer.SetTraceID(traceID)
	// 32 seed bits + 16 counter bits keeps every span ID below 2^53, so
	// JSON tooling that reads numbers as float64 (trace viewers) never
	// rounds two distinct IDs together.
	tracer.SeedSpanIDs((ringHash(node+"|"+reqID) & 0xffffffff) << 16)
	track := tracer.NewTrack("request " + reqID)
	root := track.Begin("request", map[string]any{"id": reqID, "node": node})
	if p := r.Header.Get(ParentSpanHeader); p != "" {
		if v, err := strconv.ParseUint(p, 10, 64); err == nil {
			root.SetParent(v)
		}
	}
	return &reqTrace{id: reqID, node: node, tracer: tracer, track: track, root: root}
}

// finish ends the root span, annotated with how the request was
// satisfied, and renders this node's events.
func (rt *reqTrace) finish(outcome string) []obs.ChromeEvent {
	rt.root.Set("outcome", outcome)
	rt.root.End()
	return rt.tracer.ChromeEvents("ptad " + rt.node)
}

// doc is finish rendered as a single-node trace document.
func (rt *reqTrace) doc(outcome string) *obs.ChromeDoc {
	d := obs.ChromeDoc{TraceEvents: rt.finish(outcome), DisplayTimeUnit: "ms"}
	return &d
}

// requestID returns the correlation ID minted by the logging
// middleware, or a fresh one when the handler runs without it (tests
// driving handlers directly).
func requestID(r *http.Request) string {
	if ri := reqInfoFrom(r.Context()); ri != nil {
		return ri.id
	}
	return newRequestID()
}

// writeStitched answers a traced forward from the owner's buffered 200
// response: when it is a run document, its trace (the owner's events)
// is replaced with the stitched two-node document — origin events as
// process 1, the owner's as process 2. It returns false, writing
// nothing, when the body is not a run document.
func writeStitched(w http.ResponseWriter, rt *reqTrace, body []byte) bool {
	var doc analysis.RunJSON
	if json.Unmarshal(body, &doc) != nil {
		return false
	}
	var remote []obs.ChromeEvent
	if doc.Trace != nil {
		remote = doc.Trace.TraceEvents
	}
	stitched := obs.StitchChrome(rt.finish("forwarded:"+doc.Cache), remote)
	doc.Trace = &stitched
	writeBody(w, http.StatusOK, &doc)
	return true
}
