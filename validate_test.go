package toplists

import (
	"reflect"
	"strings"
	"testing"

	"toplists/internal/obs"
	"toplists/internal/world"
)

// TestConfigValidation is the table-driven contract of the facade's config
// validation: out-of-range values fail Run (and the fleet runners) with an
// explicit error naming the field, instead of being silently clamped.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // empty = accepted
	}{
		{"zero config", Config{}, ""},
		{"all fields at max", Config{Vantages: world.MaxVantages, Backends: world.NumBackends, FaultRate: 1}, ""},
		{"negative sites", Config{Sites: -1}, "sites -1 negative"},
		{"negative clients", Config{Clients: -5}, "clients -5 negative"},
		{"negative days", Config{Days: -2}, "days -2 negative"},
		{"too many sites", Config{Sites: 1 << 40}, "sites 1099511627776 above the cap"},
		{"too many clients", Config{Clients: 1 << 40}, "clients 1099511627776 above the cap"},
		{"too many days", Config{Days: 1 << 40}, "days 1099511627776 above the cap"},
		{"negative workers", Config{Workers: -1}, "workers -1 negative"},
		{"fault rate above one", Config{FaultRate: 1.5}, "fault rate 1.5 outside [0, 1]"},
		{"negative fault rate", Config{FaultRate: -0.5}, "fault rate -0.5 outside [0, 1]"},
		{"negative vantages", Config{Vantages: -1}, "vantages -1 outside"},
		{"too many vantages", Config{Vantages: world.MaxVantages + 1}, "vantages 13 outside"},
		{"negative backends", Config{Backends: -1}, "backends -1 outside"},
		{"too many backends", Config{Backends: world.NumBackends + 1}, "backends 4 outside"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want it to contain %q", err, tc.wantErr)
			}
			// Every entry point must surface the same explicit error.
			if _, runErr := Run(tc.cfg); runErr == nil || runErr.Error() != err.Error() {
				t.Fatalf("Run() = %v, want %v", runErr, err)
			}
			if _, abErr := RunAblations(tc.cfg); abErr == nil || abErr.Error() != err.Error() {
				t.Fatalf("RunAblations() = %v, want %v", abErr, err)
			}
			if _, atErr := RunAttack(tc.cfg, []int{1}); atErr == nil || atErr.Error() != err.Error() {
				t.Fatalf("RunAttack() = %v, want %v", atErr, err)
			}
			if _, rbErr := RunRobustness(tc.cfg, []uint64{1}); rbErr == nil || rbErr.Error() != err.Error() {
				t.Fatalf("RunRobustness() = %v, want %v", rbErr, err)
			}
		})
	}
}

// TestRunMultiVantage pins the facade plumbing: a multi-vantage, multi-
// backend study runs end to end and serves the vantages extension.
func TestRunMultiVantage(t *testing.T) {
	s, err := Run(Config{Seed: 5, Sites: 400, Clients: 80, Days: 2, Vantages: 2, Backends: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Experiment("vantages")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 vantages x 2 backends", "us-east", "edgecast"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("vantages render missing %q:\n%s", want, b.String())
		}
	}
}

// TestFleetConfigCarriesStudyFlags: the multi-study runners build their
// studies from the same conversion as Run — sketch mode, fault rate and the
// vantage grid included — evaluated at the scaled "10K" magnitude with a
// private registry per study.
func TestFleetConfigCarriesStudyFlags(t *testing.T) {
	cfg := Config{Seed: 3, Sites: 500, Clients: 60, Days: 2, Workers: 1, FaultRate: 0.1,
		Vantages: 2, Backends: 2, Sketch: true, Obs: obs.NewRegistry()}
	got, err := cfg.fleet()
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.study()
	want.EvalMagIdx, want.Obs = 1, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet() = %+v, want %+v", got, want)
	}
	if !got.Sketch.Enabled || got.FaultRate != 0.1 || got.Vantages != 2 || got.Backends != 2 {
		t.Fatalf("fleet() dropped a study flag: %+v", got)
	}
}
