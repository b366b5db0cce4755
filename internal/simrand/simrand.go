// Package simrand provides deterministic, stream-splittable randomness for
// the simulation.
//
// Every stochastic component of the study draws from a Source derived from a
// root seed plus a chain of string labels and integer indices. Two Sources
// derived along the same path produce identical streams, regardless of
// goroutine scheduling or the order in which unrelated components consume
// randomness. This is what makes whole-study runs reproducible bit-for-bit.
package simrand

import "math/bits"

// splitmix64 advances a SplitMix64 state and returns the next output.
// SplitMix64 is a tiny, well-distributed mixer; we use it both for seeding
// and as the core generator.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hash64 mixes a 64-bit value (one SplitMix64 round with the value as state).
func hash64(x uint64) uint64 {
	return splitmix64(&x)
}

// hashString folds a string into a 64-bit value using FNV-1a and then mixes.
func hashString(seed uint64, s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ seed
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return hash64(h)
}

// Source is a deterministic pseudo-random stream. It implements a xoshiro256**
// generator seeded via SplitMix64, matching the construction recommended by
// the xoshiro authors. The zero Source is not valid; obtain one from New,
// Derive, or At.
type Source struct {
	s0, s1, s2, s3 uint64
	// key identifies the seed path this stream was created from. Derive and
	// At hash against key rather than the evolving state, so child streams
	// do not depend on how much of the parent has been consumed.
	key uint64
}

// New returns a Source for the given root seed.
func New(seed uint64) *Source {
	var src Source
	src.reseed(seed)
	return &src
}

func (s *Source) reseed(seed uint64) {
	s.key = seed
	sm := seed
	s.s0 = splitmix64(&sm)
	s.s1 = splitmix64(&sm)
	s.s2 = splitmix64(&sm)
	s.s3 = splitmix64(&sm)
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
}

// Uint64 returns the next 64 bits from the stream.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return result
}

// Derive returns a new Source whose stream is a deterministic function of
// this Source's seed path and the given label. Deriving does not consume or
// disturb the parent stream.
//
// Typical use: world := simrand.New(seed); sites := world.Derive("sites").
func (s *Source) Derive(label string) *Source {
	var child Source
	child.reseed(hashString(s.key, label))
	return &child
}

// At returns a new Source for the given index, e.g. one stream per site or
// per day. Like Derive, it does not disturb the parent stream.
func (s *Source) At(index int) *Source {
	var child Source
	child.reseed(hash64(s.key ^ (uint64(index)+1)*0x9e3779b97f4a7c15))
	return &child
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("simrand: Intn with n <= 0")
	}
	return int(s.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, n) using Lemire's
// multiply-shift rejection method.
func (s *Source) boundedUint64(n uint64) uint64 {
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// NormFloat64 returns a standard normal variate (polar Marsaglia method).
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		return u * sqrt(-2*ln(q)/q)
	}
}

// LogNormal returns a log-normal variate with the given parameters of the
// underlying normal (mu, sigma).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return exp(mu + sigma*s.NormFloat64())
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Poisson returns a Poisson variate with the given mean. For small means it
// uses Knuth's product method; for large means a normal approximation with
// continuity correction, which is accurate to well under the simulation's
// noise floor for lambda >= 30.
func (s *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= s.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := lambda + sqrt(lambda)*s.NormFloat64() + 0.5
	if v < 0 {
		return 0
	}
	return int(v)
}

// Binomial returns a Binomial(n, p) variate. Small n uses direct simulation;
// large n uses a normal approximation clamped to [0, n].
func (s *Source) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 64 {
		k := 0
		for i := 0; i < n; i++ {
			if s.Float64() < p {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	sd := sqrt(mean * (1 - p))
	v := int(mean + sd*s.NormFloat64() + 0.5)
	if v < 0 {
		return 0
	}
	if v > n {
		return n
	}
	return v
}
