package sketch

// Config selects between exact and sketch-backed aggregation and sizes the
// sketches. The zero value (Enabled false) is the exact oracle: every
// consumer falls back to the precise data structures it used before the
// sketch layer existed, byte-identical to historical output. With Enabled
// set, consumers accumulate bounded mergeable summaries per traffic shard
// and combine them at the day barrier.
type Config struct {
	// Enabled switches sketch-backed aggregation on. Off (the default) is
	// the exact path.
	Enabled bool

	// Shards is the number of logical traffic shards whose summaries meet
	// at the day barrier (default 8). It is fixed independently of the
	// worker count: workers process logical shards, and the barrier merges
	// summaries in ascending shard order, so output is byte-identical at
	// any parallelism.
	Shards int

	// TopK is the space-saving capacity of each per-shard candidate
	// summary (default 4096). Published sketch-mode rankings are truncated
	// to the merged candidate set, so list depth is bounded by roughly
	// Shards×TopK rather than the universe size.
	TopK int

	// CMWidth and CMDepth size the count-min sketches estimating request
	// frequencies (defaults 8192×4, ≈256 KiB per combo per shard).
	CMWidth, CMDepth int

	// HLLPrecision is the register exponent of the per-key HyperLogLog
	// distinct counters (default 11: 2 KiB per tracked key, ≈2.3% standard
	// error; small counts fall in the near-exact linear-counting range).
	HLLPrecision uint8

	// ProfileK bounds the per-client-IP domain profile kept by the Secrank
	// voting reconstruction (default 64 — profiles beyond that are
	// truncated by space-saving rather than grown).
	ProfileK int
}

// WithDefaults fills zero fields with the documented defaults.
func (c Config) WithDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.TopK <= 0 {
		c.TopK = 4096
	}
	if c.CMWidth <= 0 {
		c.CMWidth = 8192
	}
	if c.CMDepth <= 0 {
		c.CMDepth = 4
	}
	if c.HLLPrecision == 0 {
		c.HLLPrecision = 11
	}
	if c.ProfileK <= 0 {
		c.ProfileK = 64
	}
	return c
}

// NewCountMin returns a frequency sketch at the configured dimensions.
func (c Config) NewCountMin() *CountMin {
	return NewCountMin(c.CMWidth, c.CMDepth)
}

// NewTopK returns a candidate summary at the configured capacity.
func (c Config) NewTopK() *SpaceSaving {
	return NewSpaceSaving(c.TopK)
}

// NewTopKDistinct returns a candidate summary with per-key distinct
// counters at the configured capacity and precision.
func (c Config) NewTopKDistinct() *TopKDistinct {
	return NewTopKDistinct(c.TopK, c.HLLPrecision)
}

// NewProfile returns a bounded per-IP profile summary.
func (c Config) NewProfile() *SpaceSaving {
	return NewSpaceSaving(c.ProfileK)
}
