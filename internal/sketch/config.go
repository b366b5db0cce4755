package sketch

// Config selects between exact and sketch-backed aggregation. Either way
// consumers accumulate per traffic shard and combine the shards at the day
// barrier. The zero value (Enabled false) is the exact oracle: the shard
// states hold exact sets and counts. With Enabled set, they hold bounded
// mergeable summaries. The summaries' dimensions are fixed (the constants
// below), so sketch-mode output is a function of the study seed and
// configuration alone.
type Config struct {
	// Enabled switches sketch-backed aggregation on. Off (the default) is
	// exact aggregation.
	Enabled bool
}

const (
	// topK is the space-saving capacity of each per-shard candidate
	// summary. Published sketch-mode rankings are truncated to the merged
	// candidate set, so list depth is bounded by roughly shards×topK
	// rather than the universe size.
	topK = 4096

	// cmWidth and cmDepth size the count-min sketches estimating request
	// frequencies (≈256 KiB per combo per shard).
	cmWidth, cmDepth = 8192, 4

	// hllPrecision is the register exponent of the per-key HyperLogLog
	// distinct counters: ≈2.3% standard error, and small counts fall in
	// the near-exact linear-counting range. A key's counter starts sparse,
	// 4 B per non-zero register, and takes the 2 KiB register file only
	// past 128 of them (m/16); Count is bit-identical in either form.
	hllPrecision = 11

	// profileK bounds the per-client-IP domain profile kept by the Secrank
	// voting reconstruction: profiles beyond it are truncated by
	// space-saving rather than grown.
	profileK = 64
)

// NewShardCountMin returns a request-frequency sketch at the shard
// dimensions. Shard summaries and the day state they merge into share
// these dimensions, as merging requires.
func NewShardCountMin() *CountMin { return NewCountMin(cmWidth, cmDepth) }

// NewShardTopK returns a candidate summary at the shard capacity.
func NewShardTopK() *SpaceSaving { return NewSpaceSaving(topK) }

// NewShardTopKDistinct returns a candidate summary with per-key distinct
// counters at the shard capacity and precision.
func NewShardTopKDistinct() *TopKDistinct { return NewTopKDistinct(topK, hllPrecision) }

// NewShardProfile returns a bounded per-IP profile summary.
func NewShardProfile() *SpaceSaving { return NewSpaceSaving(profileK) }
