package rank

import (
	"slices"
	"strings"
	"testing"

	"toplists/internal/names"
	"toplists/internal/psl"
)

// FuzzScaledMagnitudes checks the bucketer construction over degenerate
// universe sizes: the cutoffs must always be strictly increasing, at least
// 1, and consistent with BucketOf at every boundary.
func FuzzScaledMagnitudes(f *testing.F) {
	for _, n := range []int{-1_000_000, -1, 0, 1, 2, 3, 9, 10, 999, 1_000,
		1_001, 999_999, 1_000_000, 1_000_001, 1 << 40, 1<<62 + 12345} {
		f.Add(n)
	}
	f.Fuzz(func(t *testing.T, n int) {
		b := ScaledMagnitudes(n)
		prev := 0
		for i, m := range b.Magnitudes {
			if m < 1 {
				t.Fatalf("ScaledMagnitudes(%d) cutoff %d = %d < 1", n, i, m)
			}
			if m <= prev {
				t.Fatalf("ScaledMagnitudes(%d) cutoffs not strictly increasing: %v",
					n, b.Magnitudes)
			}
			prev = m
		}
		// Boundary consistency: each cutoff lands in its own bucket, the
		// next rank in the next bucket.
		for i, m := range b.Magnitudes {
			if got := b.BucketOf(m); got != Bucket(i) {
				t.Fatalf("ScaledMagnitudes(%d): BucketOf(%d) = %v, want %v",
					n, m, got, Bucket(i))
			}
			if got := b.BucketOf(m + 1); got != Bucket(i+1) {
				t.Fatalf("ScaledMagnitudes(%d): BucketOf(%d) = %v, want %v",
					n, m+1, got, Bucket(i+1))
			}
		}
		for i := range b.Magnitudes {
			if b.Label(i) == "" {
				t.Fatalf("ScaledMagnitudes(%d): empty label at %d", n, i)
			}
		}
	})
}

// FuzzBucketer feeds arbitrary (even non-monotonic) cutoffs and ranks to
// BucketOf: it must never panic, always return a valid bucket, honor the
// unranked convention, and stay monotone for sane cutoffs.
func FuzzBucketer(f *testing.F) {
	f.Add(1000, 10_000, 100_000, 1_000_000, 500)
	f.Add(1, 2, 3, 4, 0)
	f.Add(0, 0, 0, 0, -77)
	f.Add(-5, 1<<50, -9, 3, 1<<52)
	f.Add(20, 200, 2000, 20000, 20001)
	f.Fuzz(func(t *testing.T, m0, m1, m2, m3, rank int) {
		bk := Bucketer{Magnitudes: [4]int{m0, m1, m2, m3}}
		got := bk.BucketOf(rank)
		if got > BucketBeyond {
			t.Fatalf("BucketOf(%d) with cutoffs %v = %d, out of range",
				rank, bk.Magnitudes, got)
		}
		if rank <= 0 && got != BucketBeyond {
			t.Fatalf("BucketOf(%d) = %v, want BucketBeyond for unranked", rank, got)
		}
		if rank > 0 {
			// The returned bucket must be the first cutoff admitting rank.
			for i, m := range bk.Magnitudes {
				if rank <= m {
					if got != Bucket(i) {
						t.Fatalf("BucketOf(%d) cutoffs %v = %v, want first admitting %v",
							rank, bk.Magnitudes, got, Bucket(i))
					}
					return
				}
			}
			if got != BucketBeyond {
				t.Fatalf("BucketOf(%d) cutoffs %v = %v, want BucketBeyond",
					rank, bk.Magnitudes, got)
			}
		}
	})
}

// TestBucketOfMonotone pins the monotonicity BucketOf must provide for
// increasing cutoffs (the fuzz targets cannot assert it across two calls).
func TestBucketOfMonotone(t *testing.T) {
	bk := ScaledMagnitudes(20_000)
	last := Bucket1K
	for r := 1; r <= 25_000; r++ {
		b := bk.BucketOf(r)
		if b < last {
			t.Fatalf("BucketOf(%d) = %v below BucketOf(%d) = %v", r, b, r-1, last)
		}
		last = b
	}
	if last != BucketBeyond {
		t.Fatalf("rank past the largest cutoff = %v, want BucketBeyond", last)
	}
}

// FuzzNormalize checks the memoized normalization against its string
// oracle over arbitrary name lists (newline-separated, duplicates dropped):
// NormalizePSLIn over a fresh table must never panic and must return the
// same names and NormalizeStats as NormalizePSL, cold and with a warm apex
// cache.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []string{
		"com\nwww.google.com\napi.google.com\nexample.co.uk\ncdn.shop.example.de",
		"",
		".",
		"..\n.com\ncom.\na..b.com",
		"co.uk\nuk\nfoo.co.uk\nbar.foo.co.uk",
		"WWW.Example.COM\nexample.com\n*.example.com",
		"unlisted-tld\nx.unlisted-tld\ny.x.unlisted-tld",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		var list []string
		seen := make(map[string]bool)
		for _, name := range strings.Split(in, "\n") {
			if !seen[name] {
				seen[name] = true
				list = append(list, name)
			}
		}
		oracle, err := NewIn(names.NewTable(), list)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats := oracle.NormalizePSL(psl.Default())

		tab := names.NewTable()
		r, err := NewIn(tab, list)
		if err != nil {
			t.Fatal(err)
		}
		nz := NewNormalizer(tab, psl.Default())
		for pass := 0; pass < 2; pass++ { // the second pass reads the warm apex cache
			got, gotStats := r.NormalizePSLIn(nz)
			if !slices.Equal(got.Names(), want.Names()) {
				t.Fatalf("pass %d: NormalizePSLIn = %q, want %q", pass, got.Names(), want.Names())
			}
			if gotStats != wantStats {
				t.Fatalf("pass %d: stats = %+v, want %+v", pass, gotStats, wantStats)
			}
		}
	})
}
