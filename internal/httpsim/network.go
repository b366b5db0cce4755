// Package httpsim provides the virtual HTTP layer of the study: an
// in-memory network of origin servers fronted by a Cloudflare-style edge
// proxy, plus the concurrent HEAD prober the evaluation uses to decide which
// top-list entries are Cloudflare-served (Section 4.3: "we perform a HTTP
// HEAD request against each website ... and remove any website that does
// not include the cf_ray HTTP header").
//
// Traffic flows through the real net/http client and server stacks over
// synchronous in-memory pipes, so everything a production prober would
// exercise — dialing, request writing, header parsing, redirects, timeouts —
// is exercised here, just without sockets.
package httpsim

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"toplists/internal/domain"
	"toplists/internal/faults"
	"toplists/internal/obs"
	"toplists/internal/world"
)

// ErrNoSuchHost is returned by the dialer for unregistered hostnames,
// standing in for NXDOMAIN.
var ErrNoSuchHost = errors.New("httpsim: no such host")

// memListener is a net.Listener fed by a channel of pipe ends.
type memListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newMemListener() *memListener {
	return &memListener{conns: make(chan net.Conn, 64), closed: make(chan struct{})}
}

// Accept implements net.Listener.
func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener. It is idempotent, and it drains any
// queued-but-unaccepted conns so their dialers see the pipe close rather
// than hanging on a server that will never read.
func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		for {
			select {
			case c := <-l.conns:
				c.Close()
			default:
				return
			}
		}
	})
	return nil
}

// Addr implements net.Listener.
func (l *memListener) Addr() net.Addr {
	return &net.UnixAddr{Name: "httpsim", Net: "mem"}
}

// dial hands one end of a fresh pipe to the listener. The closed channel
// is checked up front: the select below picks randomly among ready cases,
// so without the pre-check a dial racing Close could enqueue onto a
// listener that will never Accept again (Close's drain closes any loser of
// that race, and the pre-check makes dial-after-close fail promptly).
func (l *memListener) dial(ctx context.Context) (net.Conn, error) {
	select {
	case <-l.closed:
		return nil, net.ErrClosed
	default:
	}
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.closed:
		client.Close()
		server.Close()
		return nil, net.ErrClosed
	case <-ctx.Done():
		client.Close()
		server.Close()
		return nil, ctx.Err()
	}
}

// hostInfo describes one registered hostname.
type hostInfo struct {
	// backend is the CDN edge fronting the host (BackendNone = origin).
	backend world.Backend
	https   bool
	// redirectTo, when set, 301-redirects root requests to the given host
	// (the www-canonical pattern).
	redirectTo string
}

// Network is the virtual internet: a hostname registry, one edge server
// (Cloudflare) and one origin farm server, and a dialer that routes by
// hostname. It is safe for concurrent use after Start.
type Network struct {
	mu    sync.RWMutex
	hosts map[string]hostInfo

	edge   *memListener
	origin *memListener

	edgeSrv   *http.Server
	originSrv *http.Server

	rayCounter atomic.Uint64
	started    bool

	// plan, when set, injects deterministic faults into dials and
	// responses; see SetFaultPlan.
	planMu sync.RWMutex
	plan   *faults.Plan

	// metrics counts injected faults by class; set via SetObs, read with
	// atomic-pointer semantics through planMu for the same reason the plan
	// is. Nil (the default) counts nothing.
	metrics *faults.Metrics
}

// SetObs registers the network's fault-injection counters on reg. Call
// alongside SetFaultPlan; with no registry the network stays
// uninstrumented.
func (n *Network) SetObs(reg *obs.Registry) {
	n.planMu.Lock()
	n.metrics = faults.NewMetrics(reg)
	n.planMu.Unlock()
}

func (n *Network) faultMetrics() *faults.Metrics {
	n.planMu.RLock()
	defer n.planMu.RUnlock()
	return n.metrics
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{hosts: make(map[string]hostInfo)}
}

// AddWorld registers every hostname of every site in the world, each
// fronted by the site's serving backend (its primary CDN when deployed).
// Sites whose www hostname carries more traffic than the apex serve the
// www-canonical pattern: the apex 301-redirects to www.
func (n *Network) AddWorld(w *world.World) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := 0; i < w.NumSites(); i++ {
		s := w.Site(int32(i))
		b := w.ServingBackend(s)
		apex := hostInfo{backend: b, https: s.HTTPS}
		for sub, label := range s.Subdomains {
			if label == "www" && s.SubWeights[sub] > s.SubWeights[0] {
				apex.redirectTo = s.Hostname(sub)
			}
		}
		for sub := range s.Subdomains {
			info := hostInfo{backend: b, https: s.HTTPS}
			if sub == 0 {
				info = apex
			}
			n.hosts[s.Hostname(sub)] = info
		}
	}
	// Infrastructure names deliberately stay unregistered: they are not
	// websites, so probing them fails like it would in the field.
}

// lookup returns the host info.
func (n *Network) lookup(host string) (hostInfo, bool) {
	n.mu.RLock()
	h, ok := n.hosts[host]
	n.mu.RUnlock()
	return h, ok
}

// Start launches the edge and origin servers. Call Close when done.
func (n *Network) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return
	}
	n.started = true
	n.edge = newMemListener()
	n.origin = newMemListener()
	n.edgeSrv = &http.Server{Handler: http.HandlerFunc(n.serveEdge)}
	n.originSrv = &http.Server{Handler: http.HandlerFunc(n.serveOrigin)}
	go n.edgeSrv.Serve(n.edge)     //nolint:errcheck // returns on Close
	go n.originSrv.Serve(n.origin) //nolint:errcheck // returns on Close
}

// Close shuts both servers down.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.started {
		return
	}
	n.started = false
	n.edgeSrv.Close()
	n.originSrv.Close()
}

// hostOf strips the port from a dial address.
func hostOf(addr string) string {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	return host
}

// SetFaultPlan installs (or, with nil, removes) the fault plan. Faults
// only strike requests that carry a faults.Key — the probe paths stamp one
// per attempt — so a plan's decisions stay pure functions of
// (host, day, attempt) no matter how requests interleave.
func (n *Network) SetFaultPlan(p *faults.Plan) {
	n.planMu.Lock()
	n.plan = p
	n.planMu.Unlock()
}

func (n *Network) faultPlan() *faults.Plan {
	n.planMu.RLock()
	defer n.planMu.RUnlock()
	return n.plan
}

// FaultTouches reports whether the installed fault plan strikes the first
// attempt (day 0, attempt 0) of a probe of host: a Dial or Edge fault on
// the host itself, or on the www host its apex redirects to, which the
// client chases under the same attempt key. A probe whose first attempt
// no fault touches classifies on that attempt, exactly as it would on a
// fault-free network. Unregistered hosts fail before any fault applies.
func (n *Network) FaultTouches(host string) bool {
	p := n.faultPlan()
	if !p.Enabled() {
		return false
	}
	host = domain.Normalize(host)
	info, ok := n.lookup(host)
	if !ok {
		return false
	}
	key := faults.Key{}
	struck := func(h string) bool { return p.Dial(h, key) != faults.None || p.Edge(h, key) != faults.None }
	return struck(host) || info.redirectTo != "" && struck(domain.Normalize(info.redirectTo))
}

// DialContext routes a dial to the edge (Cloudflare hosts) or the origin
// farm. It implements the http.Transport DialContext signature.
func (n *Network) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	host := domain.Normalize(hostOf(addr))
	info, ok := n.lookup(host)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchHost, host)
	}
	if p := n.faultPlan(); p.Enabled() {
		if key, ok := faults.FromContext(ctx); ok {
			kind := p.Dial(host, key)
			n.faultMetrics().Injected(kind)
			switch kind {
			case faults.DialRefused:
				return nil, fmt.Errorf("dial %s: %w", host, faults.ErrRefused)
			case faults.DialStall:
				// A stall resolves at once to the same transient error it
				// would give after any fixed delay: its outcome is decided
				// by the plan, so waiting on a timer would buy nothing and
				// could only let a timeout race the scheduler. A dial whose
				// context already ended still reports that.
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("dial %s: %w", host, faults.ErrStalled)
			case faults.DialReset:
				c, err := n.dialBackend(ctx, info)
				if err != nil {
					return nil, err
				}
				return &resetConn{Conn: c}, nil
			case faults.DialTruncate:
				c, err := n.dialBackend(ctx, info)
				if err != nil {
					return nil, err
				}
				return &truncConn{Conn: c, remain: truncateAfter}, nil
			}
		}
	}
	return n.dialBackend(ctx, info)
}

// dialBackend connects to the listener serving the host. All deployed CDN
// backends share one edge listener — what distinguishes them is the
// response signature the edge stamps, not the wire.
func (n *Network) dialBackend(ctx context.Context, info hostInfo) (net.Conn, error) {
	if info.backend != world.BackendNone {
		return n.edge.dial(ctx)
	}
	return n.origin.dial(ctx)
}

// Client connections are sized for one HEAD exchange: a request line plus
// a few headers out, a status line plus a few headers back. Longer header
// lines still parse; bufio only refills more often.
const (
	clientReadBuffer  = 1 << 10
	clientWriteBuffer = 512
)

// Client returns an *http.Client routed through the virtual network. TLS
// dials hand back a plain pipe (the simulation treats transport security as
// already established), so https:// URLs work against the in-memory stack.
//
// The client keeps no idle connections. A probe sweep sends each attempt
// to a distinct (host, scheme) pair, and a fault plan forces Connection:
// close anyway, so a pooled connection would never be reused; it would
// only keep its goroutines and buffers live for the GC to scan.
func (n *Network) Client() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext:       n.DialContext,
			DialTLSContext:    n.DialContext,
			DisableKeepAlives: true,
			ReadBufferSize:    clientReadBuffer,
			WriteBufferSize:   clientWriteBuffer,
		},
	}
}

// serveEdge is the CDN reverse proxy: it stamps the fronting backend's ray
// header (cf-ray for the Cloudflare-style backend) and Server banner on
// every response for a host it fronts, then serves the origin content.
func (n *Network) serveEdge(w http.ResponseWriter, r *http.Request) {
	host := domain.Normalize(hostOf(r.Host))
	if n.injectResponseFault(w, r, host) {
		return
	}
	info, ok := n.lookup(host)
	if !ok || info.backend == world.BackendNone {
		// A direct-to-edge request for a host no backend fronts.
		w.Header().Set("Server", "cloudflare")
		http.Error(w, "error 1001: DNS resolution error", http.StatusForbidden)
		return
	}
	ray := n.rayCounter.Add(1)
	w.Header().Set(info.backend.RayHeader(), fmt.Sprintf("%012x-SIM", ray))
	w.Header().Set("Server", info.backend.Banner())
	n.writeContent(w, r, host)
}

// injectResponseFault applies the fault plan to one response. It returns
// true when a fault consumed the request. While a plan is installed every
// response is marked Connection: close, so each keyed attempt dials fresh:
// whether a retry would reuse a pooled connection is timing-dependent, and
// letting it skip the dialer would make dial-fault decisions depend on
// scheduling. With no plan (the golden-tested configuration) responses are
// untouched.
func (n *Network) injectResponseFault(w http.ResponseWriter, r *http.Request, host string) bool {
	p := n.faultPlan()
	if !p.Enabled() {
		return false
	}
	w.Header().Set("Connection", "close")
	key, ok := faults.DecodeKey(r.Header.Get(faults.ProbeHeader))
	if !ok {
		return false
	}
	if p.Edge(host, key) == faults.Edge5xx {
		// A transient error from in front of the backend (overloaded load
		// balancer, upstream hiccup): no cf-ray header, the signature the
		// naive single-shot prober misreads as "not Cloudflare-served".
		n.faultMetrics().Injected(faults.Edge5xx)
		http.Error(w, "502 bad gateway (injected fault)", http.StatusBadGateway)
		return true
	}
	return false
}

// serveOrigin serves hosts that are not behind the edge.
func (n *Network) serveOrigin(w http.ResponseWriter, r *http.Request) {
	host := domain.Normalize(hostOf(r.Host))
	if n.injectResponseFault(w, r, host) {
		return
	}
	if _, ok := n.lookup(host); !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Server", "origin/1.0")
	n.writeContent(w, r, host)
}

// writeContent emits a minimal page: enough for HEAD probing and simple GETs.
func (n *Network) writeContent(w http.ResponseWriter, r *http.Request, host string) {
	if info, ok := n.lookup(host); ok && info.redirectTo != "" && r.URL.Path == "/" {
		scheme := "http"
		if info.https {
			scheme = "https"
		}
		http.Redirect(w, r, scheme+"://"+info.redirectTo+"/", http.StatusMovedPermanently)
		return
	}
	if r.URL.Path != "/" && r.URL.Path != "/index.html" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	fmt.Fprintf(w, "<!doctype html><title>%s</title><h1>%s</h1>\n",
		htmlEscape(host), htmlEscape(host))
}

func htmlEscape(s string) string {
	r := strings.NewReplacer("<", "&lt;", ">", "&gt;", "&", "&amp;")
	return r.Replace(s)
}
