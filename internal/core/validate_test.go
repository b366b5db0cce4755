package core

import (
	"math"
	"strings"
	"testing"

	"toplists/internal/traffic"
	"toplists/internal/world"
)

// TestConfigValidate is the table-driven contract of the one study-config
// validation path: zero fields take defaults, out-of-range values fail
// with an error naming the field, and NewStudy refuses what Validate
// rejects instead of panicking somewhere downstream.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // empty = accepted
	}{
		{"zero config", Config{}, ""},
		{"all fields at max", Config{Vantages: world.MaxVantages, Backends: world.NumBackends, FaultRate: 1, EvalMagIdx: 3}, ""},
		{"negative sites", Config{NumSites: -1}, "sites -1 negative"},
		{"negative clients", Config{NumClients: -5}, "clients -5 negative"},
		{"negative days", Config{Days: -2}, "days -2 negative"},
		{"sizes at their caps", Config{NumSites: maxSites, NumClients: maxClients, Days: maxDays}, ""},
		{"sites past the cap", Config{NumSites: maxSites + 1}, "sites 1048577 above the cap 1048576"},
		{"clients past the cap", Config{NumClients: maxClients + 1}, "clients 8388609 above the cap 8388608"},
		{"days past the cap", Config{Days: maxDays + 1}, "days 367 above the cap 366"},
		{"negative workers", Config{Workers: -1}, "workers -1 negative"},
		{"fault rate above one", Config{FaultRate: 1.5}, "fault rate 1.5 outside [0, 1]"},
		{"negative fault rate", Config{FaultRate: -0.5}, "fault rate -0.5 outside [0, 1]"},
		{"NaN fault rate", Config{FaultRate: math.NaN()}, "fault rate NaN outside [0, 1]"},
		{"negative vantages", Config{Vantages: -1}, "vantages -1 outside"},
		{"too many vantages", Config{Vantages: world.MaxVantages + 1}, "vantages 13 outside"},
		{"negative backends", Config{Backends: -1}, "backends -1 outside"},
		{"too many backends", Config{Backends: world.NumBackends + 1}, "backends 4 outside"},
		{"eval magnitude index past the bucketer", Config{EvalMagIdx: 4}, "eval magnitude index 4 outside [0, 4)"},
		{"negative eval magnitude index", Config{EvalMagIdx: -1}, "eval magnitude index -1 outside [0, 4)"},
		{"sybil target in universe", Config{NumSites: 400, Sybils: []traffic.SybilSpec{{Site: 399, Clients: 1}}}, ""},
		{"sybil target past universe", Config{NumSites: 400, Sybils: []traffic.SybilSpec{{Site: 400, Clients: 1}}}, "sybil target site 400 outside [0, 400)"},
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
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
			defer func() {
				if r, _ := recover().(error); r == nil || r.Error() != err.Error() {
					t.Fatalf("NewStudy panicked with %v, want the Validate error %v", r, err)
				}
			}()
			NewStudy(tc.cfg)
		})
	}
}
