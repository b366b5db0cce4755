package toplists

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the RenderAll golden files instead of comparing")

// TestRenderAllGolden pins the full rendered evaluation output for two
// seeds against checked-in golden files captured from the string-backed
// implementation. The interned (ID-backed) evaluation must render
// byte-identically: interner IDs are an internal vocabulary only — every
// ordering decision (score sort, tie-break, min-rank grouping) is made on
// scores and strings, never on IDs. See DESIGN.md, "Interned evaluation".
// The seed-7 config also runs in sketch mode, which pins the sketch
// kernels' output (HLL estimates, summary merges) across commits.
//
// Regenerate with: go test -run TestRenderAllGolden -update-golden
func TestRenderAllGolden(t *testing.T) {
	cases := []struct {
		golden string
		cfg    Config
		shared bool // seed 7 is the shared facade config; reuse its study
	}{
		{"golden_seed7.txt", Config{Seed: 7, Sites: 1500, Clients: 500, Days: 5, AllCombos: true}, true},
		{"golden_seed9.txt", Config{Seed: 9, Sites: 400, Clients: 120, Days: 2}, false},
		{"golden_sketch_seed7.txt", Config{Seed: 7, Sites: 1500, Clients: 500, Days: 5, AllCombos: true, Sketch: true}, false},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			var s *Study
			if tc.shared {
				s = facade(t)
			} else {
				var err error
				s, err = Run(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
			}
			var b strings.Builder
			if err := s.RenderAll(&b); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.golden)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != string(want) {
				t.Errorf("RenderAll output differs from %s (len %d vs %d); first divergence at byte %d",
					path, len(got), len(want), firstDiff(got, string(want)))
			}
		})
	}
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
