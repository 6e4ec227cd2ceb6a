package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/service"
	ptav1 "introspect/pta/v1"
)

// twoNodeFleet builds two services sharing a static two-peer ring, each
// behind a real HTTP listener. The listeners must exist before the
// services (the ring is keyed by URL), so the handlers are installed
// through an indirection.
func twoNodeFleet(t *testing.T, cfg service.Config) (srvA, srvB *httptest.Server, svcA, svcB *service.Service) {
	t.Helper()
	var hA, hB http.Handler
	srvA = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { hA.ServeHTTP(w, r) }))
	srvB = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { hB.ServeHTTP(w, r) }))
	t.Cleanup(srvA.Close)
	t.Cleanup(srvB.Close)

	peers := []string{srvA.URL, srvB.URL}
	cfgA, cfgB := cfg, cfg
	cfgA.Peers, cfgA.Self = peers, srvA.URL
	cfgB.Peers, cfgB.Self = peers, srvB.URL
	svcA = service.MustNew(cfgA)
	svcB = service.MustNew(cfgB)
	hA, hB = svcA.Handler(), svcB.Handler()
	return srvA, srvB, svcA, svcB
}

// nameOwnedBy searches program names until one routes to the wanted
// peer — both nodes must agree, which also exercises ring determinism.
func nameOwnedBy(t *testing.T, svcA, svcB *service.Service, src, want string) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		name := fmt.Sprintf("prog%d", i)
		peerA, _ := svcA.PeerFor("mj", name, src)
		peerB, _ := svcB.PeerFor("mj", name, src)
		if peerA != peerB {
			t.Fatalf("nodes disagree on owner of %q: %q vs %q", name, peerA, peerB)
		}
		if peerA == want {
			return name
		}
	}
	t.Fatal("no name routed to the wanted peer in 256 tries (ring is degenerate)")
	return ""
}

// TestPeerForwarding is the sharding tentpole end to end: a request
// arriving at the non-owner is forwarded to the owner, solved there,
// cached there, and a repeat through either entry node is the owner's
// cache hit.
func TestPeerForwarding(t *testing.T) {
	srvA, srvB, svcA, svcB := twoNodeFleet(t, service.Config{Workers: 1})
	src := holderMJ(t)
	name := nameOwnedBy(t, svcA, svcB, src, srvB.URL)

	url := srvA.URL + "/v1/analyze?spec=insens&name=" + name
	resp, err := http.Post(url, "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var doc analysis.RunJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Cache != "miss" || !doc.Complete {
		t.Errorf("forwarded solve: cache=%q complete=%v", doc.Cache, doc.Complete)
	}

	// The solve happened on B; A only proxied.
	if m := svcA.Metrics(); m.Solves != 0 || m.Peers.Forwarded[srvB.URL] != 1 {
		t.Errorf("entry node: solves=%d forwarded=%v, want 0 solves and 1 forward to B", m.Solves, m.Peers.Forwarded)
	}
	if m := svcB.Metrics(); m.Solves != 1 {
		t.Errorf("owner node: solves=%d, want 1", m.Solves)
	}

	// Repeat through A: forwarded again, served from B's cache.
	resp2, err := http.Post(url, "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	json.Unmarshal(b2, &doc)
	if doc.Cache != "hit" {
		t.Errorf("repeat through entry node: cache=%q, want hit (the owner's cache)", doc.Cache)
	}
	if m := svcB.Metrics(); m.Solves != 1 || m.Cache.Hits != 1 {
		t.Errorf("owner after repeat: solves=%d hits=%d, want 1/1", m.Solves, m.Cache.Hits)
	}

	// Batches route by the same key.
	body, _ := json.Marshal(ptav1.BatchRequest{
		Name: name, Source: src, Jobs: []analysis.Job{{Spec: "insens"}, {Spec: "cs"}},
	})
	resp3, err := http.Post(srvA.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b3, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	var batch ptav1.BatchResponse
	if err := json.Unmarshal(b3, &batch); err != nil || len(batch.Results) != 2 {
		t.Fatalf("forwarded batch: %v\n%s", err, b3)
	}
	if m := svcA.Metrics(); m.Batches != 0 || m.Peers.Forwarded[srvB.URL] != 3 {
		t.Errorf("entry node after batch: batches=%d forwarded=%v", m.Batches, m.Peers.Forwarded)
	}
	if m := svcB.Metrics(); m.Batches != 1 {
		t.Errorf("owner after batch: batches=%d, want 1", m.Batches)
	}
}

// TestPeerForwardRejectsInvalidUTF8: a source that is not valid UTF-8
// would change in the forward's JSON re-encoding (0xE9 becomes
// U+FFFD), so the owner would solve and cache a different program
// than the bytes the edge routed by. The edge rejects it before
// routing: 400, nothing forwarded, no solve on the owner.
func TestPeerForwardRejectsInvalidUTF8(t *testing.T) {
	srvA, srvB, svcA, svcB := twoNodeFleet(t, service.Config{Workers: 1})
	src := "// caf\xe9\nclass A { static void main() { Object o = new A(); } }"
	name := nameOwnedBy(t, svcA, svcB, src, srvB.URL)

	resp, err := http.Post(srvA.URL+"/v1/analyze?spec=insens&name="+name, "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, b)
	}
	if m := svcA.Metrics(); len(m.Peers.Forwarded) != 0 || m.Rejected.Invalid != 1 {
		t.Errorf("entry node: forwarded=%v rejected=%d, want no forward and 1 rejection", m.Peers.Forwarded, m.Rejected.Invalid)
	}
	if m := svcB.Metrics(); m.Requests != 0 || m.Solves != 0 {
		t.Errorf("owner node: requests=%d solves=%d, want 0/0", m.Requests, m.Solves)
	}
}

// TestPeerForwardEscapedSource: a forward re-encodes the source as
// JSON, where a control byte grows to six bytes (\u00XX). A source
// within MaxSourceBytes must still fit the owner's body cap after that
// growth, and must be served through the edge exactly as directly.
func TestPeerForwardEscapedSource(t *testing.T) {
	const body = "\nclass A { static void main() { Object o = new A(); } }"
	for _, tc := range []struct{ name, fill string }{
		{"angle brackets", "<"},
		{"control bytes", "\x01"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srvA, srvB, svcA, svcB := twoNodeFleet(t, service.Config{Workers: 1, MaxSourceBytes: 4096})
			src := "// " + strings.Repeat(tc.fill, 3000) + body
			name := nameOwnedBy(t, svcA, svcB, src, srvB.URL)

			resp, err := http.Post(srvA.URL+"/v1/analyze?spec=insens&name="+name, "text/plain", strings.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("through the edge: status %d, want 200: %s", resp.StatusCode, b)
			}
			if m := svcA.Metrics(); m.Peers.Forwarded[srvB.URL] != 1 || m.Solves != 0 {
				t.Errorf("entry node: forwarded=%v solves=%d, want one forward and no local solve", m.Peers.Forwarded, m.Solves)
			}
			if m := svcB.Metrics(); m.Solves != 1 {
				t.Errorf("owner node: solves=%d, want 1", m.Solves)
			}
		})
	}
}

// TestPeerForwardLoopPrevention: a request already wearing the forward
// header is served locally even by a non-owner — one hop, never two.
func TestPeerForwardLoopPrevention(t *testing.T) {
	srvA, srvB, svcA, svcB := twoNodeFleet(t, service.Config{Workers: 1})
	_ = srvB
	src := holderMJ(t)
	name := nameOwnedBy(t, svcA, svcB, src, srvB.URL)

	req, err := http.NewRequest(http.MethodPost, srvA.URL+"/v1/analyze?spec=insens&name="+name, strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set(service.ForwardHeader, "http://elsewhere")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if m := svcA.Metrics(); m.Solves != 1 || len(m.Peers.Forwarded) != 0 {
		t.Errorf("forwarded-marked request: solves=%d forwarded=%v, want a local solve and no second hop", m.Solves, m.Peers.Forwarded)
	}
	if m := svcB.Metrics(); m.Solves != 0 {
		t.Errorf("owner solved a request it never received: solves=%d", m.Solves)
	}
}

// TestPeerFallback: an unreachable owner degrades to a local solve —
// the client still gets its result, and the fallback is counted.
func TestPeerFallback(t *testing.T) {
	// A listener that closes immediately: a peer that is in the ring but
	// down.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()

	var h http.Handler
	alive := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { h.ServeHTTP(w, r) }))
	defer alive.Close()
	svc := service.MustNew(service.Config{
		Workers: 1,
		Peers:   []string{alive.URL, deadURL},
		Self:    alive.URL,
	})
	h = svc.Handler()

	// Find a name the dead peer owns.
	src := holderMJ(t)
	var name string
	for i := 0; i < 256; i++ {
		n := fmt.Sprintf("prog%d", i)
		if peer, local := svc.PeerFor("mj", n, src); !local && peer == deadURL {
			name = n
			break
		}
	}
	if name == "" {
		t.Fatal("no name routed to the dead peer")
	}

	resp, err := http.Post(alive.URL+"/v1/analyze?spec=insens&name="+name, "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with a dead owner, want 200 via local fallback: %s", resp.StatusCode, b)
	}
	var doc analysis.RunJSON
	if err := json.Unmarshal(b, &doc); err != nil || !doc.Complete {
		t.Fatalf("fallback response: %v\n%s", err, b)
	}
	m := svc.Metrics()
	if m.Solves != 1 || m.Peers.Fallbacks != 1 || m.Peers.Errors[deadURL] != 1 {
		t.Errorf("fallback metrics: solves=%d fallbacks=%d errors=%v", m.Solves, m.Peers.Fallbacks, m.Peers.Errors)
	}
}

// TestPeerConfigValidation: New rejects inconsistent fleet
// configurations instead of routing traffic into the void.
func TestPeerConfigValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  service.Config
	}{
		{"self missing", service.Config{Peers: []string{"http://a", "http://b"}, Self: "http://c"}},
		{"self empty", service.Config{Peers: []string{"http://a"}}},
		{"duplicate peer", service.Config{Peers: []string{"http://a", "http://a"}, Self: "http://a"}},
		{"empty peer", service.Config{Peers: []string{"http://a", ""}, Self: "http://a"}},
	} {
		if _, err := service.New(c.cfg); err == nil {
			t.Errorf("%s: New accepted the configuration", c.name)
		}
	}
}
