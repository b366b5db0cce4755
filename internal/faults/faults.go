// Package faults is the simulation's failure model: a seed-deterministic
// plan of transport and edge faults injected into the virtual network.
//
// The real probing step the paper relies on (Section 4.3's HEAD-probe for
// the cf-ray header) runs over an internet full of transient refusals,
// resets, stalls and flaky 5xxs; a probe lost to any of them silently
// reclassifies a site as "not Cloudflare-served" and skews every downstream
// comparison. This package reproduces that weather inside the simulation
// without giving up reproducibility: every fault decision is a pure function
// of (plan seed, fault class, host, virtual day, attempt index) — never the
// wall clock, never a shared RNG, never a mutable counter in the request
// path — so the same seed yields byte-identical runs at any concurrency, and
// a zero rate is exactly the perfect-weather network the golden tests pin.
package faults

import (
	"context"
	"errors"
	"strconv"
	"strings"
)

// Kind identifies one injected fault.
type Kind uint8

// The fault kinds. The Dial* kinds surface in the dialer, Edge5xx in the
// HTTP proxy middleware.
const (
	None Kind = iota
	// DialRefused fails the dial immediately (connection refused).
	DialRefused
	// DialReset connects, then resets on the first response read.
	DialReset
	// DialTruncate connects, then cuts the response off mid-headers.
	DialTruncate
	// DialStall connects nothing and fails at once with ErrStalled, the
	// same transient error a hung dial would give once it gave up (a dial
	// whose context already ended reports the context's error). It takes
	// no wall time, so a probe's classification never depends on how its
	// per-attempt timeout races real scheduling delays — timing must not
	// be able to alter outcomes.
	DialStall
	// Edge5xx answers with a 502 from in front of the edge, without the
	// cf-ray header a healthy edge response would carry.
	Edge5xx
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case DialRefused:
		return "dial-refused"
	case DialReset:
		return "dial-reset"
	case DialTruncate:
		return "dial-truncate"
	case DialStall:
		return "dial-stall"
	case Edge5xx:
		return "edge-5xx"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Errors surfaced by the fault-injecting dialer and connections.
var (
	ErrRefused = errors.New("faults: connection refused")
	ErrReset   = errors.New("faults: connection reset by peer")
	ErrStalled = errors.New("faults: connection stalled")
)

// Key locates one probe attempt in virtual time. Day is the virtual
// measurement day (retry-on-next-day sweeps advance it), Attempt the
// attempt index within the probe of one host. Together with the host name
// they fully determine every fault decision.
type Key struct {
	Day     int
	Attempt int
}

type ctxKey struct{}

// NewContext returns ctx carrying the attempt key, read by the
// fault-injecting dialer.
func NewContext(ctx context.Context, k Key) context.Context {
	return context.WithValue(ctx, ctxKey{}, k)
}

// FromContext extracts the attempt key, if one is present.
func FromContext(ctx context.Context) (Key, bool) {
	k, ok := ctx.Value(ctxKey{}).(Key)
	return k, ok
}

// ProbeHeader is the request header probers stamp with Key.Encode so
// server-side middleware (which never sees the dial context) can key its
// own fault decisions on the same attempt.
const ProbeHeader = "X-Sim-Probe-Key"

// Encode renders the key for ProbeHeader.
func (k Key) Encode() string {
	return strconv.Itoa(k.Day) + "." + strconv.Itoa(k.Attempt)
}

// DecodeKey parses a ProbeHeader value.
func DecodeKey(s string) (Key, bool) {
	day, attempt, ok := strings.Cut(s, ".")
	if !ok {
		return Key{}, false
	}
	d, err1 := strconv.Atoi(day)
	a, err2 := strconv.Atoi(attempt)
	if err1 != nil || err2 != nil {
		return Key{}, false
	}
	return Key{Day: d, Attempt: a}, true
}

// Plan decides which faults strike which attempts. A nil plan, or one with
// Rate 0, injects nothing. Plans are immutable and safe for concurrent use:
// they hold no state, and every decision method is a pure function of its
// arguments.
type Plan struct {
	// Seed keys every decision; two plans with the same seed and rate make
	// identical calls forever.
	Seed uint64
	// Rate is the per-attempt fault probability in [0, 1]. An attempt
	// rolls once per channel: dial-level faults take ~3/4 of the budget,
	// edge-response faults the remaining ~1/4.
	Rate float64
}

// Enabled reports whether the plan injects anything; safe on nil.
func (p *Plan) Enabled() bool { return p != nil && p.Rate > 0 }

// dialShare and edgeShare split an HTTP attempt's fault budget between the
// dialer and the response path.
const (
	dialShare = 0.75
	edgeShare = 0.25
)

// Dial decides the dial-level fault for one attempt at a host. The four
// dial kinds split the dial share of the rate evenly.
func (p *Plan) Dial(host string, k Key) Kind {
	if !p.Enabled() {
		return None
	}
	x := p.roll("dial", host, k)
	if frac(x) >= dialShare*p.Rate {
		return None
	}
	return [...]Kind{DialRefused, DialReset, DialTruncate, DialStall}[x&3]
}

// Edge decides the response-level fault for one attempt at a host.
func (p *Plan) Edge(host string, k Key) Kind {
	if !p.Enabled() {
		return None
	}
	if frac(p.roll("edge", host, k)) < edgeShare*p.Rate {
		return Edge5xx
	}
	return None
}

// roll hashes (seed, class, name, day, attempt) into one well-mixed word:
// FNV-1a over the inputs, finished with the splitmix64 mixer so every bit
// avalanches. The selector bits (low) and the probability bits (high, via
// frac) come from the same word but disjoint ranges.
func (p *Plan) roll(class, name string, k Key) uint64 {
	h := uint64(14695981039346656037)
	h = foldWord(h, p.Seed)
	h = foldString(h, class)
	h = foldString(h, name)
	h = foldWord(h, uint64(int64(k.Day)))
	h = foldWord(h, uint64(int64(k.Attempt)))
	return mix64(h)
}

// Jitter returns a deterministic backoff multiplier in [0.5, 1.0) keyed on
// (host, retry round): enough spread to desynchronize retry schedules,
// with none of the wall-clock dependence of rand-based jitter.
func Jitter(host string, round int) float64 {
	h := uint64(14695981039346656037)
	h = foldString(h, host)
	h = foldWord(h, uint64(int64(round)))
	return 0.5 + frac(mix64(h))/2
}

func foldWord(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (x >> (8 * i)) & 0xff
		h *= 1099511628211
	}
	return h
}

func foldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// frac maps the top 53 bits of x to [0, 1).
func frac(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}
