package main

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"a1"
	"a1/internal/query"
)

// TestFetchRejectsForgedTokens: GET and DELETE /fetch take the token from
// the request, so a machine id outside the cluster or a negative page size
// must answer 410 bad_token instead of reaching the engine's per-machine
// state.
func TestFetchRejectsForgedTokens(t *testing.T) {
	db, err := a1.Open(a1.Options{Machines: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := &server{db: db}
	for name, payload := range map[string]string{
		"machine past the cluster": `{"m":9999,"id":1}`,
		"negative machine":         `{"m":-1,"id":1}`,
		"negative page size":       `{"m":0,"id":1,"ps":-5}`,
	} {
		token := base64.URLEncoding.EncodeToString([]byte(payload))
		for _, method := range []string{http.MethodGet, http.MethodDelete} {
			w := httptest.NewRecorder()
			s.handleFetch(w, httptest.NewRequest(method, "/fetch?token="+url.QueryEscape(token), nil))
			var body errorJSON
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
				t.Errorf("%s %s: body %q: %v", method, name, w.Body, err)
				continue
			}
			if w.Code != http.StatusGone || body.Code != "bad_token" {
				t.Errorf("%s %s: status %d code %q, want 410 bad_token", method, name, w.Code, body.Code)
			}
		}
	}
}

// TestEveryCodeHasStatus: every query error code but the blanket
// CodeInternal maps to a status of its own and goes out under its own
// wire name, so a new failure class cannot regress to a 500 — whether or
// not anything constructs it yet.
func TestEveryCodeHasStatus(t *testing.T) {
	for c := query.Code(1); c < query.NumCodes; c++ {
		status, code := classifyError(&a1.QueryError{Code: c, Err: errors.New("failed")})
		if status == http.StatusInternalServerError || code != c.String() || code == "" || code == "internal" {
			t.Errorf("code %d (named %q): status %d, wire code %q; want a non-500 status and the code's own, non-empty name",
				c, c.String(), status, code)
		}
	}
}

// TestServerTimeouts: the server main runs bounds every phase of a
// connection — header, body, reply, keep-alive idle — so a stalled or
// idle client cannot hold a connection open for good, and it serves the
// server's routes.
func TestServerTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", (&server{}).routes())
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"WriteTimeout":      srv.WriteTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want a bound", name, d)
		}
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Errorf("ReadHeaderTimeout %v exceeds ReadTimeout %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
	if srv.Addr != "127.0.0.1:0" {
		t.Errorf("Addr = %q", srv.Addr)
	}
	w := httptest.NewRecorder()
	srv.Handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK || w.Body.String() != "ok\n" {
		t.Errorf("/healthz: %d %q", w.Code, w.Body)
	}
}
