package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"toplists/internal/cfmetrics"
	"toplists/internal/core"
	"toplists/internal/obs"
	"toplists/internal/rank"
	"toplists/internal/snapshot"
	"toplists/internal/traffic"
)

// crashpointEnv, when set to "N:OFF", SIGKILLs the process after OFF
// bytes of the Nth checkpoint written by this process have reached the
// temp file — before fsync and rename, so only a torn temp file is left
// behind. It exists for the crashcheck oracle, which uses it to prove
// that a power loss mid-checkpoint-write can never damage the previous
// generation or be mistaken for a valid one.
const crashpointEnv = "TOPLISTSD_CRASHPOINT"

// writeSlots caps concurrent write-path requests (advance, checkpoint).
// Both are heavyweight — a day advance write-holds the study lock, a
// checkpoint streams the full state — so unbounded concurrent POSTs
// would only queue on those locks while holding HTTP resources. Excess
// callers get an immediate 503 with Retry-After instead.
const writeSlots = 2

// server wraps one resident study with the HTTP+JSON control surface.
// All day-lifecycle synchronization lives in core.Study. Rankings, diffs,
// readiness and status load the study's published day view and take no
// lock, so they never wait for a day advance or a checkpoint; only CrUX
// reads and checkpoints read-hold the study's lifecycle lock, which an
// advance write-holds. The server only adds checkpoint-directory
// serialization and a write-path admission semaphore.
type server struct {
	study *core.Study
	log   *obs.Logger

	// Request-level telemetry, shared by every instrumented route. All of
	// it is Volatile: request traffic is process history, not simulation
	// state, so it must never show up in the deterministic or
	// resume-stable report subsets.
	reqTotal             *obs.Counter
	status2xx, status3xx *obs.Counter
	status4xx, status5xx *obs.Counter

	// ckptMu serializes checkpoint writes: generation numbering in the
	// snapshot directory assumes one writer at a time.
	ckptMu  sync.Mutex
	ckptDir *snapshot.Dir
	retain  int

	// ckptCount counts checkpoint writes attempted by this process; the
	// crashpoint hook keys off it.
	ckptCount  int
	crashNth   int
	crashAfter int64

	writeSem chan struct{}

	// collecting is set while the collection collectAfterAdvance started
	// still runs.
	collecting atomic.Bool
}

func newServer(study *core.Study, dir *snapshot.Dir, retain int, log *obs.Logger) *server {
	if log == nil {
		log = obs.NewLogger(os.Stderr, obs.LevelError)
	}
	m := study.Metrics()
	s := &server{
		study:     study,
		ckptDir:   dir,
		retain:    retain,
		log:       log,
		writeSem:  make(chan struct{}, writeSlots),
		reqTotal:  m.Counter("http.requests", obs.Volatile),
		status2xx: m.Counter("http.status.2xx", obs.Volatile),
		status3xx: m.Counter("http.status.3xx", obs.Volatile),
		status4xx: m.Counter("http.status.4xx", obs.Volatile),
		status5xx: m.Counter("http.status.5xx", obs.Volatile),
	}
	if spec := os.Getenv(crashpointEnv); spec != "" {
		if nth, off, ok := parseCrashpoint(spec); ok {
			s.crashNth, s.crashAfter = nth, off
			log.Infof("crashpoint armed: SIGKILL after %d bytes of checkpoint %d", off, nth)
		} else {
			log.Errorf("ignoring malformed %s=%q (want N:OFF)", crashpointEnv, spec)
		}
	}
	return s
}

func parseCrashpoint(spec string) (nth int, off int64, ok bool) {
	a, b, found := strings.Cut(spec, ":")
	if !found {
		return 0, 0, false
	}
	nth, err := strconv.Atoi(a)
	if err != nil || nth < 1 {
		return 0, 0, false
	}
	off, err = strconv.ParseInt(b, 10, 64)
	if err != nil || off < 0 {
		return 0, 0, false
	}
	return nth, off, true
}

// handler is the complete serving surface: the route mux wrapped in
// panic recovery, so one faulty handler answers 500 instead of killing
// the resident process (http.Server would otherwise only kill the one
// connection goroutine). Reads serve the study's published day view
// without its lifecycle lock, and the paths that do take that lock
// release it by defer, so a panicking request cannot wedge later ones.
func (s *server) handler() http.Handler {
	return s.withRecovery(s.routes())
}

// notFound answers a path no route serves with a JSON 404.
func notFound(w http.ResponseWriter, r *http.Request) {
	writeErr(w, http.StatusNotFound, "no route for %s %s", r.Method, r.URL.Path)
}

// routes builds the API surface. Every handler answers JSON; errors are
// {"error": "..."} with a meaningful status code. Each route is
// individually instrumented (per-endpoint latency histogram, status-class
// counters, access log), so the metric key set is fixed by the route
// table, not by whatever paths clients probe. A rankings path whose list
// is not one clean path segment ("", "..", "/") answers a JSON 404 too,
// uninstrumented: the mux would otherwise answer it itself, in plain text
// or with a redirect to a path outside the API.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	for pattern, h := range map[string]http.HandlerFunc{
		"GET /healthz":            s.handleHealth,
		"GET /readyz":             s.handleReady,
		"GET /metrics":            s.handleMetrics,
		"GET /v1/status":          s.handleStatus,
		"POST /v1/advance":        s.handleAdvance,
		"GET /v1/vantages":        s.handleVantages,
		"GET /v1/rankings/{list}": s.handleRankings,
		"GET /v1/diff":            s.handleDiff,
		"GET /v1/report":          s.handleReport,
		"POST /v1/checkpoint":     s.handleCheckpoint,
	} {
		mux.Handle(pattern, s.instrument(pattern, h))
	}
	mux.HandleFunc("GET /v1/rankings/", notFound)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p := r.URL.EscapedPath(); strings.HasPrefix(p, "/v1/rankings/") && !isClean(p) {
			notFound(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// isClean reports whether the mux serves path p as it is rather than
// redirecting: p is its own path.Clean, give or take one trailing slash.
// path.Clean does not allocate when it returns a prefix of its input.
func isClean(p string) bool {
	c := path.Clean(p)
	return p == c || len(p) == len(c)+1 && strings.HasPrefix(p, c) && p[len(c)] == '/'
}

// statusRecorder captures the status code and payload size a handler
// produced, for the latency histograms and the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (rec *statusRecorder) WriteHeader(code int) {
	if rec.status == 0 {
		rec.status = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *statusRecorder) Write(p []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	n, err := rec.ResponseWriter.Write(p)
	rec.bytes += int64(n)
	return n, err
}

// instrument wraps one route with request-level telemetry: a per-endpoint
// latency histogram ("http.latency.<pattern>"), the shared status-class
// counters, and a structured access log line (method, path, status,
// bytes, duration) at debug level (-v).
func (s *server) instrument(pattern string, h http.HandlerFunc) http.Handler {
	lat := s.study.Metrics().Histogram("http.latency." + pattern)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		dur := time.Since(start)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		lat.Observe(dur)
		s.reqTotal.Inc()
		switch {
		case rec.status < 300:
			s.status2xx.Inc()
		case rec.status < 400:
			s.status3xx.Inc()
		case rec.status < 500:
			s.status4xx.Inc()
		default:
			s.status5xx.Inc()
		}
		if s.log.Enabled(obs.LevelDebug) {
			s.log.Debugf("http: %s %s -> %d %dB %s", r.Method, r.URL.Path, rec.status, rec.bytes, dur.Round(time.Microsecond))
		}
	})
}

// withRecovery turns a handler panic into a JSON 500 and a volatile
// http.panics counter tick. Volatile because operational mishaps are
// process history, not simulation state: they must not perturb the
// resume-stable report the crash oracle compares across restarts.
func (s *server) withRecovery(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				m := s.study.Metrics()
				m.Counter("http.panics", obs.Volatile).Inc()
				// Record the offending path so /metrics shows which
				// endpoint is faulty, not just that something panicked.
				// Panics are rare by construction, so the per-path key
				// cardinality stays bounded in practice.
				m.Counter("http.panics."+r.Method+" "+r.URL.Path, obs.Volatile).Inc()
				s.log.Errorf("panic serving %s %s: %v", r.Method, r.URL.Path, v)
				// Best effort: if the handler already wrote headers this
				// is a no-op on a broken stream, which is all we can do.
				writeErr(w, http.StatusInternalServerError, "internal error")
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// acquireWrite admits a write-path request or answers 503 Retry-After.
// The caller must releaseWrite() iff this returns true.
func (s *server) acquireWrite(w http.ResponseWriter) bool {
	select {
	case s.writeSem <- struct{}{}:
		return true
	default:
		s.study.Metrics().Counter("http.throttled", obs.Volatile).Inc()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "too many concurrent write operations (limit %d)", writeSlots)
		return false
	}
}

func (s *server) releaseWrite() { <-s.writeSem }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// queryInt reads an integer query parameter from q, the request's parsed
// query, falling back to def when absent. A malformed value reports
// ok=false after answering 400.
func queryInt(w http.ResponseWriter, q url.Values, name string, def int) (int, bool) {
	raw := q.Get(name)
	if raw == "" {
		return def, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "parameter %q: %v", name, err)
		return 0, false
	}
	return v, true
}

// handleHealth is liveness: the process is up and serving. It says
// nothing about the study — an aborted study still answers 200 here so
// an operator can reach /v1/status and /v1/report to see why.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is readiness: the study has at least one published day to
// serve and has not aborted. Load balancers and the crash oracle gate on
// this before sending reader traffic.
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	if err := s.study.Aborted(); err != nil {
		writeErr(w, http.StatusServiceUnavailable, "study aborted: %v", err)
		return
	}
	day := s.study.Day()
	if day < 1 {
		writeErr(w, http.StatusServiceUnavailable, "no day published yet (day %d)", day)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "day": day})
}

type statusResponse struct {
	Day     int      `json:"day"`
	Days    int      `json:"days"`
	Done    bool     `json:"done"`
	Aborted string   `json:"aborted,omitempty"`
	Seed    uint64   `json:"seed"`
	Sites   int      `json:"sites"`
	Clients int      `json:"clients"`
	Sketch  bool     `json:"sketch"`
	Lists   []string `json:"lists"`
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.study
	resp := statusResponse{
		Day:     st.Day(),
		Days:    st.Cfg.Days,
		Seed:    st.Cfg.Seed,
		Sites:   st.Cfg.NumSites,
		Clients: st.Cfg.NumClients,
		Sketch:  st.Cfg.Sketch.Enabled,
		Lists:   st.ListNames(),
	}
	resp.Done = resp.Day == resp.Days
	if err := st.Aborted(); err != nil {
		resp.Aborted = err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAdvance advances the study by ?days=N (default 1) simulated days.
// Advancing a finished study answers 409 Conflict, as does an aborted
// one; a canceled request (client went away mid-day) latches the study
// and is reported like any other abort on the next call.
func (s *server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	n, ok := queryInt(w, r.URL.Query(), "days", 1)
	if !ok {
		return
	}
	if n < 1 {
		writeErr(w, http.StatusBadRequest, "days must be >= 1, got %d", n)
		return
	}
	if !s.acquireWrite(w) {
		return
	}
	defer s.releaseWrite()
	for i := 0; i < n; i++ {
		err := s.study.AdvanceDay(r.Context())
		switch {
		case err == nil:
			continue
		case errors.Is(err, traffic.ErrRunComplete), errors.Is(err, core.ErrStudyAborted):
			writeErr(w, http.StatusConflict, "%v", err)
			return
		default:
			writeErr(w, http.StatusInternalServerError, "advance: %v", err)
			return
		}
	}
	day := s.study.Day()
	writeJSON(w, http.StatusOK, map[string]any{
		"day":  day,
		"done": day == s.study.Cfg.Days,
	})
	s.collectAfterAdvance()
}

// collectAfterAdvance starts a garbage collection in the background once
// days have advanced, unless the last one it started still runs. A
// simulated day allocates most of what the server allocates, so left to
// its own pacing the collector starts in the middle of some later day,
// where its mark worker takes a CPU from the day and from the reads
// served meanwhile, and how many days it lands in varies from run to
// run. Collected right after the day, the heap starts the next day with
// its whole growth allowance, which one day's allocation stays under.
func (s *server) collectAfterAdvance() {
	if !s.collecting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.collecting.Store(false)
		runtime.GC()
	}()
}

type vantageInfo struct {
	Name        string `json:"name"`
	Country     string `json:"country"`
	Transparent bool   `json:"transparent"`
}

type vantagesResponse struct {
	Vantages []vantageInfo `json:"vantages"`
	Backends []string      `json:"backends"`
	Metrics  []string      `json:"metrics"`
}

// handleVantages describes the study's measurement grid: every vantage
// point, every deployed backend, and the metric keys the per-edge
// rankings endpoint accepts.
func (s *server) handleVantages(w http.ResponseWriter, r *http.Request) {
	vs := s.study.Vantages()
	resp := vantagesResponse{Vantages: make([]vantageInfo, 0, len(vs))}
	for i := range vs {
		v := &vs[i]
		resp.Vantages = append(resp.Vantages, vantageInfo{
			Name:        v.Name,
			Country:     v.Country.String(),
			Transparent: v.Transparent(),
		})
	}
	for _, b := range s.study.Backends() {
		resp.Backends = append(resp.Backends, b.String())
	}
	for _, m := range cfmetrics.AllMetrics() {
		resp.Metrics = append(resp.Metrics, m.Key())
	}
	writeJSON(w, http.StatusOK, resp)
}

type rankingsResponse struct {
	List    string   `json:"list"`
	Vantage string   `json:"vantage,omitempty"`
	Backend string   `json:"backend,omitempty"`
	Day     int      `json:"day"`
	K       int      `json:"k"`
	Total   int      `json:"total"`
	Names   []string `json:"names"`
}

// writeRankings answers 200 with resp, byte for byte as writeJSON would,
// but without reflection or a second indenting pass, and in one Write
// that carries its Content-Length. Rankings and diffs are most of the
// server's requests and run beside day advances, so their CPU is the
// advance's loss on a small host.
func writeRankings(w http.ResponseWriter, resp rankingsResponse) {
	b := make([]byte, 0, 128+len(resp.List)+len(resp.Vantage)+len(resp.Backend)+32*len(resp.Names))
	b = append(b, "{\n  \"list\": "...)
	b = appendJSONString(b, resp.List)
	if resp.Vantage != "" {
		b = append(b, ",\n  \"vantage\": "...)
		b = appendJSONString(b, resp.Vantage)
	}
	if resp.Backend != "" {
		b = append(b, ",\n  \"backend\": "...)
		b = appendJSONString(b, resp.Backend)
	}
	b = append(b, ",\n  \"day\": "...)
	b = strconv.AppendInt(b, int64(resp.Day), 10)
	b = append(b, ",\n  \"k\": "...)
	b = strconv.AppendInt(b, int64(resp.K), 10)
	b = append(b, ",\n  \"total\": "...)
	b = strconv.AppendInt(b, int64(resp.Total), 10)
	b = append(b, ",\n  \"names\": "...)
	b = appendJSONStrings(b, resp.Names)
	writeBody(w, append(b, "\n}\n"...))
}

// writeDiff answers 200 with resp as writeRankings answers a rankings
// response.
func writeDiff(w http.ResponseWriter, resp diffResponse) {
	b := make([]byte, 0, 160+len(resp.List)+32*(len(resp.Entered)+len(resp.Left)))
	b = append(b, "{\n  \"list\": "...)
	b = appendJSONString(b, resp.List)
	b = append(b, ",\n  \"from\": "...)
	b = strconv.AppendInt(b, int64(resp.From), 10)
	b = append(b, ",\n  \"to\": "...)
	b = strconv.AppendInt(b, int64(resp.To), 10)
	b = append(b, ",\n  \"k\": "...)
	b = strconv.AppendInt(b, int64(resp.K), 10)
	b = append(b, ",\n  \"entered\": "...)
	b = appendJSONStrings(b, resp.Entered)
	b = append(b, ",\n  \"left\": "...)
	b = appendJSONStrings(b, resp.Left)
	b = append(b, ",\n  \"jaccard\": "...)
	j, _ := json.Marshal(resp.Jaccard) // a ratio of counts is finite, so it marshals
	b = append(b, j...)
	writeBody(w, append(b, "\n}\n"...))
}

// writeBody answers 200 with the JSON document b in one Write.
func writeBody(w http.ResponseWriter, b []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	w.Write(b) //nolint:errcheck // client went away
}

// appendJSONStrings appends names as the value of a top-level field,
// indented as writeJSON indents it.
func appendJSONStrings(b []byte, names []string) []byte {
	switch {
	case names == nil:
		return append(b, "null"...)
	case len(names) == 0:
		return append(b, "[]"...)
	}
	for i, name := range names {
		if i == 0 {
			b = append(b, "[\n    "...)
		} else {
			b = append(b, ",\n    "...)
		}
		b = appendJSONString(b, name)
	}
	return append(b, "\n  ]"...)
}

// appendJSONString appends s quoted as encoding/json quotes it. A string
// of printable ASCII that needs no escape, as every domain name is, is
// copied between quotes; any other goes through json.Marshal, so the
// escaping rules stay the library's.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// handleRankings serves the top k of one list for one advanced day
// (default: the most recent). k=0 serves the full list; a negative k is
// 400. With a ?vantage= or ?backend= parameter the path names a
// Cloudflare metric key instead of a list, and the response is that
// (vantage, backend) edge pipeline's view of the metric; an unknown
// metric, vantage, or backend is 404.
func (s *server) handleRankings(w http.ResponseWriter, r *http.Request) {
	list, q := r.PathValue("list"), r.URL.Query()
	day, ok := queryInt(w, q, "day", s.study.Day()-1)
	if !ok {
		return
	}
	k, ok := queryInt(w, q, "k", 100)
	if !ok {
		return
	}
	if k < 0 {
		writeErr(w, http.StatusBadRequest, "k must be >= 0, got %d", k)
		return
	}
	dayGiven := q.Get("day") != ""
	if vantage, backend := q.Get("vantage"), q.Get("backend"); vantage != "" || backend != "" {
		s.edgeRankings(w, list, vantage, backend, day, dayGiven, k)
		return
	}
	ranking, err := s.study.RankingFor(list, day)
	if err != nil {
		// A day the study can never serve is the caller's mistake (400); a
		// valid day not yet advanced, or an unknown list, is 404.
		code := http.StatusNotFound
		if dayGiven && (day >= s.study.Cfg.Days || day < 0) {
			code = http.StatusBadRequest
		}
		writeErr(w, code, "%v", err)
		return
	}
	names := ranking.Names()
	if k > 0 && k < len(names) {
		names = names[:k]
	}
	writeRankings(w, rankingsResponse{
		List:  list,
		Day:   day,
		K:     len(names),
		Total: ranking.Len(),
		Names: names,
	})
}

// edgeRankings serves one (vantage, backend) edge pipeline's view of a
// Cloudflare metric. An omitted side of the edge key defaults to the
// grid's first entry (the transparent global vantage, the Cloudflare-
// style backend), so ?vantage=eu-central alone reads that vantage's view
// of the primary backend. dayGiven says the request named the day.
func (s *server) edgeRankings(w http.ResponseWriter, metric, vantage, backend string, day int, dayGiven bool, k int) {
	if vantage == "" {
		vantage = s.study.Vantages()[0].Name
	}
	if backend == "" {
		backend = s.study.Backends()[0].String()
	}
	ranking, err := s.study.EdgeRankingFor(metric, vantage, backend, day)
	if err != nil {
		// As for lists: a day the study can never serve is the caller's
		// mistake (400); unknown keys and not-yet-advanced days are 404.
		code := http.StatusNotFound
		if dayGiven && (day >= s.study.Cfg.Days || day < 0) {
			code = http.StatusBadRequest
		}
		writeErr(w, code, "%v", err)
		return
	}
	names := ranking.Names()
	if k > 0 && k < len(names) {
		names = names[:k]
	}
	writeRankings(w, rankingsResponse{
		List:    metric,
		Vantage: vantage,
		Backend: backend,
		Day:     day,
		K:       len(names),
		Total:   ranking.Len(),
		Names:   names,
	})
}

type diffResponse struct {
	List    string   `json:"list"`
	From    int      `json:"from"`
	To      int      `json:"to"`
	K       int      `json:"k"`
	Entered []string `json:"entered"`
	Left    []string `json:"left"`
	Jaccard float64  `json:"jaccard"`
}

// handleDiff compares the top k of one list between two advanced days:
// which names entered, which left, and the Jaccard similarity of the two
// cuts — the day-over-day churn the paper studies in Section 4.
func (s *server) handleDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	list := q.Get("list")
	if list == "" {
		writeErr(w, http.StatusBadRequest, "parameter \"list\" is required")
		return
	}
	to, ok := queryInt(w, q, "to", s.study.Day()-1)
	if !ok {
		return
	}
	from, ok := queryInt(w, q, "from", to-1)
	if !ok {
		return
	}
	k, ok := queryInt(w, q, "k", 100)
	if !ok {
		return
	}
	if k < 1 {
		writeErr(w, http.StatusBadRequest, "k must be >= 1, got %d", k)
		return
	}
	fromR, err := s.study.RankingFor(list, from)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	toR, err := s.study.RankingFor(list, to)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	resp := diffResponse{List: list, From: from, To: to, K: k}
	resp.Entered, resp.Left, resp.Jaccard = topKDiff(fromR, toR, k)
	writeDiff(w, resp)
}

// topKDiff reports the names that entered and left the top k between two
// rankings (in rank order) and the Jaccard similarity of the cuts. Set
// membership is a rank lookup (rank <= k) in the other ranking, so a
// caller-chosen k costs no per-k state on either ranking. Rankings over
// one interner table, as a study's are, are compared by ID.
func topKDiff(from, to *rank.Ranking, k int) (entered, left []string, jaccard float64) {
	// inTop reports whether the entry at rank i of src is in dst's top k.
	inTop := func(dst, src *rank.Ranking, i int) bool {
		var at int
		var ok bool
		if dst.Table() == src.Table() {
			at, ok = dst.RankOfID(src.IDAt(i))
		} else {
			at, ok = dst.RankOf(src.At(i))
		}
		return ok && at <= k
	}
	nFrom, nTo := min(k, from.Len()), min(k, to.Len())
	entered, left = []string{}, []string{}
	inter := 0
	for i := 1; i <= nTo; i++ {
		if inTop(from, to, i) {
			inter++
		} else {
			entered = append(entered, to.At(i))
		}
	}
	for i := 1; i <= nFrom; i++ {
		if !inTop(to, from, i) {
			left = append(left, from.At(i))
		}
	}
	if union := nFrom + nTo - inter; union > 0 {
		jaccard = float64(inter) / float64(union)
	}
	return entered, left, jaccard
}

// handleMetrics serves the full telemetry report on the main API port —
// the same document -debugaddr's /metrics serves, here so the request
// histograms and status counters are observable without a second
// listener.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.study.Metrics().Snapshot().WriteJSON(w) //nolint:errcheck // client went away
}

// handleReport serves the telemetry run report: the full snapshot by
// default, or with ?stable=1 only the resume-stable deterministic subset
// — the bytes `make snapcheck` pins across checkpoint/restore.
func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	rep := s.study.Metrics().Snapshot()
	if r.URL.Query().Get("stable") != "" {
		b, err := rep.ResumeStable()
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b) //nolint:errcheck // client went away
		return
	}
	w.Header().Set("Content-Type", "application/json")
	rep.WriteJSON(w) //nolint:errcheck // client went away
}

// handleCheckpoint snapshots the study to the configured directory.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.ckptDir == nil {
		writeErr(w, http.StatusBadRequest, "no -checkpoint directory configured")
		return
	}
	if !s.acquireWrite(w) {
		return
	}
	defer s.releaseWrite()
	gen, n, err := s.writeCheckpoint()
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, core.ErrStudyAborted) {
			code = http.StatusConflict
		}
		writeErr(w, code, "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": gen.Name(),
		"path":       gen.Path,
		"bytes":      n,
		"day":        s.study.Day(),
	})
}

// writeCheckpoint snapshots the study into a fresh generation. The
// snapshot takes the study's read lock itself, so this is the endpoint
// path; the auto-checkpoint hook, which already holds the write lock,
// goes through autoCheckpoint.
//
// Lock order here is ckptMu -> study read lock. The auto hook runs with
// the study WRITE lock held, so it must never block on ckptMu — that
// would be the classic inversion deadlock. It uses TryLock instead.
func (s *server) writeCheckpoint() (snapshot.Gen, int64, error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.writeGenerationLocked(s.study.Day, s.study.Snapshot)
}

// autoCheckpoint is the core.CheckpointFunc wired into the study by
// main: it runs on the advance path with the write lock already held, so
// it receives the study's lock-free snapshot writer. If a manual
// checkpoint holds ckptMu it is necessarily blocked on the study's read
// lock and will capture this very day boundary (or a newer one) the
// moment the advance returns — so skipping here loses nothing and
// avoids deadlocking against it.
func (s *server) autoCheckpoint(day int, write func(io.Writer) error) error {
	if !s.ckptMu.TryLock() {
		s.log.Infof("checkpoint: day %d auto-checkpoint skipped, manual checkpoint in flight", day)
		return nil
	}
	defer s.ckptMu.Unlock()
	_, _, err := s.writeGenerationLocked(func() int { return day }, write)
	return err
}

// writeGenerationLocked (ckptMu held) performs one durable checkpoint
// write: next generation file, fsynced and renamed into place by the
// snapshot directory, then pruned to the retention limit. day is a func
// because the endpoint path reads it after the snapshot settles, while
// the auto hook already knows it.
func (s *server) writeGenerationLocked(day func() int, write func(io.Writer) error) (snapshot.Gen, int64, error) {
	s.ckptCount++
	if s.crashNth > 0 && s.ckptCount == s.crashNth {
		write = crashAfter(write, s.crashAfter)
	}
	gen, n, err := s.ckptDir.Write(write)
	if err != nil {
		return snapshot.Gen{}, 0, err
	}
	if _, err := s.ckptDir.Prune(s.retain); err != nil {
		// Retention is advisory: the new generation is already durable.
		s.log.Errorf("checkpoint: prune: %v", err)
	}
	s.log.Infof("checkpoint: day %d, %d bytes -> %s", day(), n, gen.Path)
	return gen, n, nil
}

// crashAfter wraps a snapshot writer so that after off bytes the process
// SIGKILLs itself — no deferred cleanup, no flush, exactly what a power
// loss mid-write leaves behind.
func crashAfter(write func(io.Writer) error, off int64) func(io.Writer) error {
	return func(w io.Writer) error {
		return write(&crashWriter{w: w, remaining: off})
	}
}

type crashWriter struct {
	w         io.Writer
	remaining int64
}

func (cw *crashWriter) Write(p []byte) (int, error) {
	if int64(len(p)) >= cw.remaining {
		cw.w.Write(p[:cw.remaining])               //nolint:errcheck // dying anyway
		syscall.Kill(os.Getpid(), syscall.SIGKILL) //nolint:errcheck
		select {}                                  // unreachable: SIGKILL is not deliverable to a handler
	}
	cw.remaining -= int64(len(p))
	return cw.w.Write(p)
}

// tickLoop drives the virtual clock: one simulated day per interval
// until the study completes or ctx cancels. Ticker and advancement live
// in ONE goroutine — the previous split (a ticker goroutine feeding an
// unbuffered channel) could block forever on `ticks <- struct{}{}` when
// the consumer exited first, and close the channel under a pending send.
//
// Days advance under context.Background() deliberately: AdvanceDay
// latches the study aborted if its context cancels mid-day, which would
// poison the shutdown checkpoint. Cancellation is honored between days;
// an in-flight day always runs to its boundary.
func (s *server) tickLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if ctx.Err() != nil {
			return
		}
		// phase.tick spans put each ticker-driven advance on the run
		// timeline (and in the phase table) — the resident-mode view of
		// where wall clock goes between checkpoints.
		sp := s.study.Metrics().Span("phase.tick")
		err := s.study.AdvanceDay(context.Background())
		sp.End()
		switch {
		case err == nil:
			s.log.Infof("advanced to day %d/%d", s.study.Day(), s.study.Cfg.Days)
			s.collectAfterAdvance()
		case errors.Is(err, traffic.ErrRunComplete):
			s.log.Infof("all %d days simulated; ticker idle", s.study.Cfg.Days)
			return
		default:
			s.log.Errorf("advance: %v", err)
			return
		}
	}
}
