package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"introspect/internal/obs"
)

// ForwardHeader marks a request that was already routed by a peer.
// A node receiving it always serves locally — the ring is consistent
// across the fleet, so one hop reaches the owner, and the header stops
// a misconfigured fleet (peers disagreeing about membership) from
// looping a request forever.
const ForwardHeader = "X-Ptad-Forwarded"

// ringVnodes is how many points each peer contributes to the hash
// ring. 64 keeps the max/min load ratio within a few percent for small
// static fleets while the ring stays tiny (peers × 64 points).
const ringVnodes = 64

// peerRing is a consistent-hash ring over a static peer list. Keys are
// progKey hashes, so all requests for one program land on one node —
// which is what makes the fleet's caches and single-flight tables
// compose: the owner's LRU sees every request for its programs, and
// identical concurrent requests from different entry nodes still
// collapse to one solve on the owner.
type peerRing struct {
	self   string
	peers  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	peer string
}

// newPeerRing validates the membership list (self must be a member,
// entries must be unique and non-empty) and builds the ring.
func newPeerRing(self string, peers []string) (*peerRing, error) {
	if self == "" {
		return nil, fmt.Errorf("peers: Self is required when Peers is set")
	}
	seen := make(map[string]bool, len(peers))
	r := &peerRing{self: self, peers: append([]string(nil), peers...)}
	for _, p := range peers {
		if p == "" {
			return nil, fmt.Errorf("peers: empty peer entry")
		}
		if seen[p] {
			return nil, fmt.Errorf("peers: duplicate peer %q", p)
		}
		seen[p] = true
		for i := 0; i < ringVnodes; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(p + "#" + strconv.Itoa(i)), peer: p})
		}
	}
	if !seen[self] {
		return nil, fmt.Errorf("peers: Self %q is not in Peers %v", self, peers)
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].peer < r.points[j].peer
	})
	return r, nil
}

// ringHash is the ring's one hash function (peers and keys alike):
// the first eight bytes of a SHA-256, so placement is identical on
// every node regardless of architecture.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// owner returns the peer owning key: the first ring point clockwise
// from the key's hash.
func (r *peerRing) owner(key string) string {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].peer
}

// PeerFor reports which node owns the program identified by the
// request fields (after identity normalization — empty lang and name
// route like their defaults), and whether that is this node. With no
// peer ring configured everything is local.
func (s *Service) PeerFor(lang, name, source string) (peer string, local bool) {
	if s.ring == nil {
		return "", true
	}
	lang, name = normalizeIdentity(lang, name)
	peer = s.ring.owner(progKey(lang, name, source))
	return peer, peer == s.ring.self
}

// normalizeIdentity applies the same defaults validate does, so the
// routing key every node computes is the key the owner will cache
// under.
func normalizeIdentity(lang, name string) (string, string) {
	if lang == "" {
		lang = "mj"
	}
	if name == "" {
		name = "program"
	}
	return lang, name
}

// routePeer decides whether an incoming HTTP request should be
// forwarded: a ring exists, the request was not already forwarded once
// (loop prevention), and the owner is another node.
func (s *Service) routePeer(r *http.Request, lang, name, source string) (string, bool) {
	if s.ring == nil || r.Header.Get(ForwardHeader) != "" {
		return "", false
	}
	peer, local := s.PeerFor(lang, name, source)
	if local {
		return "", false
	}
	return peer, true
}

// forward re-issues the decoded request to peer as a JSON POST to
// path. It returns false if the peer could not be reached, in which
// case the caller serves locally: a down peer degrades the fleet to
// per-node caching, never to an error the client sees.
//
// Untraced (rt nil), the response is copied through verbatim — status,
// content type, body — flushing as it goes, so forwarded streams stay
// live. A traced forward (rt non-nil; non-stream /v1/analyze) also
// opens a "forward" span, sends the trace context with the request,
// and buffers the response: a run document comes back with the
// stitched two-node trace (see writeStitched); anything else passes
// through verbatim.
func (s *Service) forward(w http.ResponseWriter, r *http.Request, peer, path string, body any, rt *reqTrace) bool {
	// No HTML escaping: it would grow each <, > and & in a source to
	// six bytes on the wire for no reader's benefit.
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	err := enc.Encode(body)
	var req *http.Request
	if err == nil {
		req, err = http.NewRequestWithContext(r.Context(), http.MethodPost, strings.TrimSuffix(peer, "/")+path, &b)
	}
	if err != nil {
		s.noteForwardError(peer)
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, s.ring.self)
	// The correlation ID crosses the hop, so the owner's access log
	// carries the same ID the edge minted.
	req.Header.Set(RequestIDHeader, requestID(r))
	var fsp *obs.Span
	if rt != nil {
		fsp = rt.track.Begin("forward", map[string]any{"peer": peer})
		fsp.SetParent(rt.root.ID())
		req.Header.Set(TraceIDHeader, rt.tracer.TraceID())
		req.Header.Set(ParentSpanHeader, strconv.FormatUint(fsp.ID(), 10))
	}
	resp, err := s.peerClient.Do(req)
	var buf []byte
	if err == nil {
		defer resp.Body.Close()
		if rt != nil {
			if buf, err = io.ReadAll(resp.Body); err == nil {
				fsp.Set("status", resp.StatusCode)
			}
		}
	}
	fsp.End()
	if err != nil {
		s.noteForwardError(peer)
		return false
	}
	s.metrics.addPeer(s.metrics.c.Peers.Forwarded, peer)
	reqInfoFrom(r.Context()).set(func(ri *reqInfo) { ri.peer = peer })

	if rt != nil && resp.StatusCode == http.StatusOK && writeStitched(w, rt, buf) {
		return true
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	if rt != nil {
		w.Write(buf)
	} else {
		copyFlush(w, resp.Body)
	}
	return true
}

// noteForwardError records a failed forward attempt; the caller falls
// back to a local solve.
func (s *Service) noteForwardError(peer string) {
	s.metrics.addPeer(s.metrics.c.Peers.Errors, peer)
	s.metrics.add(&s.metrics.c.Peers.Fallbacks)
}

// copyFlush is io.Copy with a flush after every read, so chunked
// upstream responses (streams) reach the client as they arrive.
func copyFlush(w http.ResponseWriter, r io.Reader) {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
