package toplists

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// vantagecheck is the multi-vantage oracle behind `make vantagecheck`. It
// pins the two ends of the vantage/CDN refactor's contract:
//
//  1. Identity: a config that spells out the defaults (one transparent
//     vantage, one backend) renders byte-identically to the zero-value
//     config AND to the golden fixture captured before vantages existed —
//     the single-edge model is a true special case, not a near miss.
//  2. Determinism: the widest grid (3 vantages x 3 backends) renders
//     byte-identically across worker counts {1, 4, auto}, in both exact
//     and sketch aggregation modes, including the per-edge vantages
//     extension that only a multi-edge study exercises.

// vantageRender runs one study and renders the full evaluation plus the
// vantages extension (RenderAll covers only the golden-pinned paper set).
func vantageRender(t *testing.T, cfg Config) (renderAll, vantages string) {
	t.Helper()
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var b strings.Builder
	if err := s.RenderAll(&b); err != nil {
		t.Fatal(err)
	}
	res, err := s.Experiment("vantages")
	if err != nil {
		t.Fatal(err)
	}
	var vb strings.Builder
	if err := res.Render(&vb); err != nil {
		t.Fatal(err)
	}
	return b.String(), vb.String()
}

// TestVantageCheckDefaultIdentity holds the explicit single-edge config to
// the pre-refactor bytes: Vantages=1/Backends=1 must equal the zero-value
// config and the checked-in golden captured before the refactor.
func TestVantageCheckDefaultIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two full studies")
	}
	base := Config{Seed: 9, Sites: 400, Clients: 120, Days: 2}
	explicit := base
	explicit.Vantages = 1
	explicit.Backends = 1

	gotBase, _ := vantageRender(t, base)
	gotExplicit, _ := vantageRender(t, explicit)
	if gotExplicit != gotBase {
		t.Errorf("explicit Vantages=1/Backends=1 render differs from the zero-value config; first divergence at byte %d",
			firstDiff(gotExplicit, gotBase))
	}

	want, err := os.ReadFile(filepath.Join("testdata", "golden_seed9.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if gotExplicit != string(want) {
		t.Errorf("explicit single-edge render differs from the pre-refactor golden (len %d vs %d); first divergence at byte %d",
			len(gotExplicit), len(want), firstDiff(gotExplicit, string(want)))
	}
}

// TestVantageCheckMultiEdgeDeterminism renders the full 3x3 grid at worker
// counts 4, 1, and auto, exact and sketch, and requires byte-identical
// output within each mode — per-(vantage, backend) pipelines ride the same
// sharded merge as the primary, so the worker count must never show.
func TestVantageCheckMultiEdgeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six full studies")
	}
	for _, mode := range []struct {
		name   string
		sketch bool
	}{{"exact", false}, {"sketch", true}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := Config{Seed: 13, Sites: 500, Clients: 150, Days: 2,
				Vantages: 3, Backends: 3, Sketch: mode.sketch}
			run := func(workers int) (string, string) {
				c := cfg
				c.Workers = workers
				return vantageRender(t, c)
			}
			baseAll, baseV := run(4)
			if !strings.Contains(baseV, "3 vantages x 3 backends") {
				t.Fatalf("vantages render is not the 3x3 grid:\n%s", baseV)
			}
			for _, workers := range []int{1, 0} {
				gotAll, gotV := run(workers)
				if gotAll != baseAll {
					t.Errorf("RenderAll differs between workers=4 and workers=%d; first divergence at byte %d",
						workers, firstDiff(gotAll, baseAll))
				}
				if gotV != baseV {
					t.Errorf("vantages render differs between workers=4 and workers=%d; first divergence at byte %d",
						workers, firstDiff(gotV, baseV))
				}
			}
		})
	}
}
