package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// FuzzServeRequests feeds arbitrary client input to the /v1 handler: body
// is posted to both publish and move, object becomes the query's
// {object} path value and from its ?from= parameter. Whatever the input,
// the handler must not panic and must not answer 5xx; malformed input is
// a client fault. The seed corpus in testdata/fuzz/FuzzServeRequests is
// replayed by every plain `go test`.
func FuzzServeRequests(f *testing.F) {
	s, _ := newTestServer(f, Config{Shards: 2, Nodes: 64, Seed: 1})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte, object, from string) {
		target := "/v1/query/" + url.PathEscape(object)
		if from != "" {
			target += "?from=" + url.QueryEscape(from)
		}
		for _, req := range []*http.Request{
			httptest.NewRequest("POST", "/v1/publish", bytes.NewReader(body)),
			httptest.NewRequest("POST", "/v1/move", bytes.NewReader(body)),
			httptest.NewRequest("GET", target, nil),
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("%s %s: status %d: %s", req.Method, req.URL, rec.Code, rec.Body.String())
			}
		}
	})
}
