package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"toplists/internal/cfmetrics"
	"toplists/internal/core"
)

// FuzzServerQuery sends arbitrary list, day, from, to, k, vantage and
// backend values — query parameters are input from outside the process —
// to /v1/rankings/{list} and /v1/diff on a tiny advanced 2-vantage ×
// 2-backend study. No input may yield a 5xx, and every body must be valid
// JSON. A list that is not one clean path segment ("", "..", "/") never
// reaches the rankings handler — the mux answers it itself with a plain
// 404 or a redirect — so only its /v1/diff request is checked.
func FuzzServerQuery(f *testing.F) {
	s := core.NewStudy(core.Config{Seed: 37, NumSites: 300, NumClients: 60, Days: 3, Workers: 1, Vantages: 2, Backends: 2})
	f.Cleanup(s.Close)
	srv := newServer(s, nil, 5, nil)
	mux := srv.routes()
	h := srv.withRecovery(mux)
	if rec := serve(h, "POST", "/v1/advance?days=2"); rec.Code != http.StatusOK {
		f.Fatalf("advance: %d %s", rec.Code, rec.Body)
	}

	metric, vantage, backend := cfmetrics.MAllRequests.Key(), s.Vantages()[1].Name, s.Backends()[1].String()
	for _, seed := range [][7]string{
		{"Tranco", "", "", "", "", "", ""},
		{"Alexa", "0", "0", "1", "10", "", ""},
		{"CrUX", "1", "", "", "0", "", ""},
		{"Majestic", "-1", "1", "0", "-5", "", ""},
		{metric, "1", "0", "1", "3", vantage, backend},
		{metric, "0", "", "", "", vantage, ""},
		{metric, "2", "", "", "1", "", backend},
		{"NoSuchList", "99", "x", "1e3", "99999999999999999999", "nowhere", "akamai"},
		{"a/b", " 1", "+1", "0x1", "1 ", "%", "\xff"},
		{"..", "0", "", "", "", "", ""},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3], seed[4], seed[5], seed[6])
	}
	f.Fuzz(func(t *testing.T, list, day, from, to, k, vantage, backend string) {
		q := url.Values{}
		for name, v := range map[string]string{"day": day, "k": k, "vantage": vantage, "backend": backend} {
			if v != "" {
				q.Set(name, v)
			}
		}
		target := "/v1/rankings/" + url.PathEscape(list) + "?" + q.Encode()
		if _, pattern := mux.Handler(httptest.NewRequest("GET", target, nil)); pattern == "GET /v1/rankings/{list}" {
			check(t, serve(h, "GET", target))
		}

		q = url.Values{"list": {list}}
		for name, v := range map[string]string{"from": from, "to": to, "k": k} {
			if v != "" {
				q.Set(name, v)
			}
		}
		check(t, serve(h, "GET", "/v1/diff?"+q.Encode()))
	})
}

func serve(h http.Handler, method, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
	return rec
}

func check(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code >= 500 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("status %d with a body that is not JSON: %q", rec.Code, rec.Body)
	}
}
