package ptav1_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/taint"
	ptav1 "introspect/pta/v1"
)

func jsonReq(t *testing.T, body string) *http.Request {
	t.Helper()
	r, err := http.NewRequest(http.MethodPost, "http://x/v1/analyze", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r.Header.Set("Content-Type", "application/json")
	return r
}

func rawReq(t *testing.T, query, body string) *http.Request {
	t.Helper()
	r, err := http.NewRequest(http.MethodPost, "http://x/v1/analyze?"+query, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r.Header.Set("Content-Type", "text/plain")
	return r
}

func getReq(t *testing.T, query string) *http.Request {
	t.Helper()
	r, err := http.NewRequest(http.MethodGet, "http://x/v1/analyze?"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// encodingSrc is the program of every encodingCases request.
const encodingSrc = "class Main { static void main() {} }"

// encodingCases are requests expressed in each encoding: a JSON body,
// and the query parameters of the raw-POST and GET forms.
var encodingCases = []struct {
	name  string
	json  string
	query string
	want  ptav1.AnalyzeRequest
}{
	{
		name:  "spec defaulting",
		json:  `{"source":` + quote(encodingSrc) + `}`,
		query: "",
		want:  ptav1.AnalyzeRequest{Source: encodingSrc, Job: analysis.Job{Spec: ptav1.DefaultSpec}},
	},
	{
		name:  "explicit job",
		json:  `{"lang":"mj","name":"p","source":` + quote(encodingSrc) + `,"job":{"spec":"insens","workers":2},"budget":-1,"deadline_ms":5,"provenance":true}`,
		query: "lang=mj&name=p&spec=insens&workers=2&budget=-1&deadline_ms=5&provenance=true",
		want: ptav1.AnalyzeRequest{
			Lang: "mj", Name: "p", Source: encodingSrc,
			Job:    analysis.Job{Spec: "insens", Workers: 2},
			Budget: -1, DeadlineMS: 5, Provenance: true,
		},
	},
	{
		name:  "taint spec",
		json:  `{"source":` + quote(encodingSrc) + `,"job":{"spec":"2objH","taint":{"sources":["A.get"],"sinks":["B.put"],"sanitizers":["C.scrub"]}}}`,
		query: "spec=2objH&taint-sources=A.get&taint-sinks=B.put&taint-sanitizers=C.scrub",
		want: ptav1.AnalyzeRequest{
			Source: encodingSrc,
			Job: analysis.Job{Spec: "2objH", Taint: &taint.Spec{
				Sources: []string{"A.get"}, Sinks: []string{"B.put"}, Sanitizers: []string{"C.scrub"},
			}},
		},
	},
}

// TestDecodeEncodingsAgree is the defaulting-divergence regression
// test: the same request expressed as a JSON body, as a raw body with
// query parameters, and as a GET must decode to the same
// AnalyzeRequest (streaming flag aside — GET streams by default). The
// JSON-body and query-parameter paths once defaulted the spec
// differently; one decode path makes that impossible.
func TestDecodeEncodingsAgree(t *testing.T) {
	for _, c := range encodingCases {
		t.Run(c.name, func(t *testing.T) {
			fromJSON, serr := ptav1.DecodeAnalyze(jsonReq(t, c.json), 1<<20)
			if serr != nil {
				t.Fatalf("json form: %v", serr)
			}
			fromQuery, serr := ptav1.DecodeAnalyze(rawReq(t, c.query, encodingSrc), 1<<20)
			if serr != nil {
				t.Fatalf("query form: %v", serr)
			}
			getQuery := c.query
			if getQuery != "" {
				getQuery += "&"
			}
			getQuery += "source=" + url.QueryEscape(encodingSrc)
			fromGET, serr := ptav1.DecodeAnalyze(getReq(t, getQuery), 1<<20)
			if serr != nil {
				t.Fatalf("GET form: %v", serr)
			}

			if !reflect.DeepEqual(fromJSON, c.want) {
				t.Errorf("json form = %+v, want %+v", fromJSON, c.want)
			}
			if !reflect.DeepEqual(fromQuery, c.want) {
				t.Errorf("query form = %+v, want %+v", fromQuery, c.want)
			}
			// GET differs only in the streaming default.
			if !fromGET.Stream {
				t.Error("GET form does not stream by default")
			}
			fromGET.Stream = c.want.Stream
			if !reflect.DeepEqual(fromGET, c.want) {
				t.Errorf("GET form = %+v, want %+v", fromGET, c.want)
			}
		})
	}
}

// TestDecodeStreamParam pins the streaming flag across encodings: a
// query parameter on any encoding, the body field on JSON, and GET's
// opt-out.
func TestDecodeStreamParam(t *testing.T) {
	for _, c := range []struct {
		name string
		req  *http.Request
		want bool
	}{
		{"raw default", rawReq(t, "spec=insens", "x"), false},
		{"raw stream=1", rawReq(t, "spec=insens&stream=1", "x"), true},
		{"json body field", jsonReq(t, `{"source":"x","stream":true}`), true},
		{"json query override", jsonReq(t, `{"source":"x"}`), false},
		{"GET default", getReq(t, "source=x"), true},
		{"GET opt-out", getReq(t, "source=x&stream=false"), false},
	} {
		req, serr := ptav1.DecodeAnalyze(c.req, 1<<20)
		if serr != nil {
			t.Errorf("%s: %v", c.name, serr)
			continue
		}
		if req.Stream != c.want {
			t.Errorf("%s: stream = %v, want %v", c.name, req.Stream, c.want)
		}
	}

	// The stream query parameter also overrides a JSON body.
	r := jsonReq(t, `{"source":"x"}`)
	r.URL.RawQuery = "stream=1"
	req, serr := ptav1.DecodeAnalyze(r, 1<<20)
	if serr != nil {
		t.Fatal(serr)
	}
	if !req.Stream {
		t.Error("stream=1 did not override the JSON body")
	}
}

// TestDecodeErrors: malformed parameters and bodies are CodeBadRequest,
// never a panic or a silent zero.
func TestDecodeErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		req  *http.Request
	}{
		{"bad json", jsonReq(t, `{"source":`)},
		{"unknown field", jsonReq(t, `{"sauce":"x"}`)},
		{"bad budget", rawReq(t, "budget=much", "x")},
		{"bad deadline", rawReq(t, "deadline_ms=soon", "x")},
		{"bad provenance", rawReq(t, "provenance=maybe", "x")},
		{"bad workers", rawReq(t, "workers=all", "x")},
		{"bad stream", rawReq(t, "stream=sure", "x")},
		{"bad GET stream", getReq(t, "source=x&stream=sure")},
	} {
		_, serr := ptav1.DecodeAnalyze(c.req, 1<<20)
		if serr == nil {
			t.Errorf("%s: decoded without error", c.name)
			continue
		}
		if serr.Code != ptav1.CodeBadRequest {
			t.Errorf("%s: code = %q, want bad_request", c.name, serr.Code)
		}
	}
}

// latin1Source compiles as Mini-Java but is not valid UTF-8: the
// comment holds a Latin-1 0xE9.
const latin1Source = "// caf\xe9\nclass A { static void main() { Object o = new A(); } }"

// TestDecodeRejectsInvalidUTF8 is the forward-rewrite regression test.
// A peer forward re-encodes the request as JSON, which replaces
// invalid UTF-8 with U+FFFD, so the owner would solve and cache a
// different source than the bytes the edge routed by. Such requests
// are rejected at decode, on every encoding that can carry them.
func TestDecodeRejectsInvalidUTF8(t *testing.T) {
	for _, c := range []struct {
		name string
		req  *http.Request
	}{
		{"raw source", rawReq(t, "spec=insens", latin1Source)},
		{"GET source", getReq(t, "source="+url.QueryEscape(latin1Source))},
		{"raw name", rawReq(t, "name=caf%E9", encodingSrc)},
		{"raw taint pattern", rawReq(t, "taint-sources=A.g%E9t&taint-sinks=B.put", encodingSrc)},
	} {
		_, serr := ptav1.DecodeAnalyze(c.req, 1<<20)
		if serr == nil || serr.Code != ptav1.CodeBadRequest {
			t.Errorf("%s: err = %v, want bad_request", c.name, serr)
		}
	}
	// Valid non-ASCII text is fine.
	req, serr := ptav1.DecodeAnalyze(rawReq(t, "name=caf%C3%A9", "// café\n"+encodingSrc), 1<<20)
	if serr != nil || req.Name != "café" {
		t.Errorf("valid UTF-8: name %q, err %v", req.Name, serr)
	}
}

// FuzzDecodeAnalyze fuzzes the wire edge over (method, content type,
// query, body). Decoding never panics and fails only with
// CodeBadRequest, and a decoded request survives the peer forward: re-
// encoded as the JSON body a forward sends and decoded again as a JSON
// POST, it is the same request.
func FuzzDecodeAnalyze(f *testing.F) {
	for _, c := range encodingCases {
		f.Add(http.MethodPost, "application/json", "", c.json)
		f.Add(http.MethodPost, "text/plain", c.query, encodingSrc)
		f.Add(http.MethodGet, "", c.query+"&source="+url.QueryEscape(encodingSrc), "")
	}
	f.Add(http.MethodPost, "text/plain", "spec=insens&stream=1&trace=1", latin1Source)
	f.Add(http.MethodPost, "application/json; charset=utf-8", "decisions=1", `{"source":"x","job":{"taint":{"sources":["a"],"sinks":["b"],"sanitizers":[]}}}`)
	f.Fuzz(func(t *testing.T, method, contentType, query, body string) {
		r := &http.Request{
			Method: method,
			URL:    &url.URL{Path: "/v1/analyze", RawQuery: query},
			Header: http.Header{"Content-Type": {contentType}},
			Body:   io.NopCloser(strings.NewReader(body)),
		}
		req, serr := ptav1.DecodeAnalyze(r, 1<<20)
		if serr != nil {
			if serr.Code != ptav1.CodeBadRequest {
				t.Fatalf("error code %q, want bad_request: %v", serr.Code, serr)
			}
			return
		}
		var fwd bytes.Buffer
		enc := json.NewEncoder(&fwd)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		again, serr := ptav1.DecodeAnalyze(jsonReq(t, fwd.String()), 8<<20)
		if serr != nil {
			t.Fatalf("forwarded body does not decode: %v\n%s", serr, fwd.String())
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("forward changed the request:\n before %+v\n after  %+v", req, again)
		}
	})
}

// TestErrorBodyShape pins the one error envelope every endpoint uses.
func TestErrorBodyShape(t *testing.T) {
	body := ptav1.NewErrorBody(ptav1.Errorf(ptav1.CodeOverloaded, "queue full"))
	if body.Schema != ptav1.Schema || body.Code != ptav1.CodeOverloaded || body.Error != "queue full" {
		t.Errorf("envelope = %+v", body)
	}
	for code, status := range map[ptav1.Code]int{
		ptav1.CodeBadRequest: http.StatusBadRequest,
		ptav1.CodeOverloaded: http.StatusTooManyRequests,
		ptav1.CodeDeadline:   http.StatusGatewayTimeout,
		ptav1.CodeInternal:   http.StatusInternalServerError,
	} {
		if got := (&ptav1.Error{Code: code}).HTTPStatus(); got != status {
			t.Errorf("HTTPStatus(%s) = %d, want %d", code, got, status)
		}
	}
}

func quote(s string) string {
	return `"` + s + `"`
}
