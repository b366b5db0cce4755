package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"toplists/internal/cfmetrics"
	"toplists/internal/core"
)

// FuzzServerQuery sends arbitrary list, day, from, to, k, vantage and
// backend values — query parameters are input from outside the process —
// to /v1/rankings/{list} and /v1/diff on a tiny advanced 2-vantage ×
// 2-backend study, and one request with an arbitrary method and target,
// parsed as the server parses a request line. No input may yield a 5xx or
// a redirect, and every body must be valid JSON, including the 404 for a
// list that is not one clean path segment ("", "..", "/"), an unknown or
// unclean path, and the 405 for a route under another method.
func FuzzServerQuery(f *testing.F) {
	s := core.NewStudy(core.Config{Seed: 37, NumSites: 300, NumClients: 60, Days: 3, Workers: 1, Vantages: 2, Backends: 2})
	f.Cleanup(s.Close)
	srv := newServer(s, nil, 5, nil)
	h := srv.handler()
	if rec := serve(h, "POST", "/v1/advance?days=2"); rec.Code != http.StatusOK {
		f.Fatalf("advance: %d %s", rec.Code, rec.Body)
	}

	metric, vantage, backend := cfmetrics.MAllRequests.Key(), s.Vantages()[1].Name, s.Backends()[1].String()
	for _, seed := range [][9]string{
		{"Tranco", "", "", "", "", "", "", "GET", "/v1/status"},
		{"Alexa", "0", "0", "1", "10", "", "", "POST", "/v1/rankings/Alexa"},
		{"CrUX", "1", "", "", "0", "", "", "GET", "/v1/advance"},
		{"Majestic", "-1", "1", "0", "-5", "", "", "GET", "/nope"},
		{metric, "1", "0", "1", "3", vantage, backend, "GET", "/v1//status"},
		{metric, "0", "", "", "", vantage, "", "GET", "/v1/rankings/a/../Alexa?k=1"},
		{metric, "2", "", "", "1", "", backend, "HEAD", "/v1/rankings"},
		{"NoSuchList", "99", "x", "1e3", "99999999999999999999", "nowhere", "akamai", "DELETE", "/"},
		{"a/b", " 1", "+1", "0x1", "1 ", "%", "\xff", "CONNECT", "example.com:443"},
		{"..", "0", "", "", "", "", "", "GET", "/healthz/"},
		{"/", "", "", "", "", "", "", "POST", "/v1/checkpoint"},
		{"", "", "", "", "", "", "", "GET", "*"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3], seed[4], seed[5], seed[6], seed[7], seed[8])
	}
	f.Fuzz(func(t *testing.T, list, day, from, to, k, vantage, backend, method, target string) {
		q := url.Values{}
		for name, v := range map[string]string{"day": day, "k": k, "vantage": vantage, "backend": backend} {
			if v != "" {
				q.Set(name, v)
			}
		}
		check(t, serve(h, "GET", "/v1/rankings/"+url.PathEscape(list)+"?"+q.Encode()))

		q = url.Values{"list": {list}}
		for name, v := range map[string]string{"from": from, "to": to, "k": k} {
			if v != "" {
				q.Set(name, v)
			}
		}
		check(t, serve(h, "GET", "/v1/diff?"+q.Encode()))

		// A request line the server would refuse never reaches the handler.
		req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(method + " " + target + " HTTP/1.1\r\nHost: toplistsd\r\n\r\n")))
		if err != nil {
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		check(t, rec)
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
	if rec.Code >= 300 && rec.Code < 400 {
		t.Fatalf("redirect %d to %q", rec.Code, rec.Header().Get("Location"))
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("status %d with a body that is not JSON: %q", rec.Code, rec.Body)
	}
}
