package world

import (
	"strings"
	"testing"
)

// TestConfigValidate is the table-driven contract of Config.Validate:
// out-of-range values produce explicit errors naming the field instead of
// being silently clamped, and zero values stay valid (they take defaults).
func TestConfigValidate(t *testing.T) {
	badVantages := DefaultVantages(2)
	badVantages[1].Reach[0] = 1.5
	dupVantages := []Vantage{GlobalVantage(), GlobalVantage()}
	regionalFirst := []Vantage{regionalVantage("eu-central", DE)}
	noName := DefaultVantages(2)
	noName[1].Name = ""
	negLatency := DefaultVantages(2)
	negLatency[1].LatencyMS[3] = -1

	cases := []struct {
		name    string
		cfg     Config
		wantErr string // empty = valid
	}{
		{"zero config is valid", Config{}, ""},
		{"full default-shaped config", Config{Seed: 7, NumSites: 100, Backends: 1, Vantages: DefaultVantages(1)}, ""},
		{"multi-edge config", Config{NumSites: 50, Backends: NumBackends, Vantages: DefaultVantages(MaxVantages)}, ""},
		{"negative sites", Config{NumSites: -1}, "NumSites -1 negative"},
		{"negative backend count", Config{Backends: -1}, "Backends -1 outside"},
		{"backend count beyond deployable", Config{Backends: NumBackends + 1}, "Backends 4 outside"},
		{"vantage reach above one", Config{Vantages: badVantages}, "reach[US] = 1.5 outside [0, 1]"},
		{"vantage negative latency", Config{Vantages: negLatency}, "latency[BR] = -1 negative"},
		{"vantage without name", Config{Vantages: noName}, "empty name"},
		{"duplicate vantage names", Config{Vantages: dupVantages}, `duplicate vantage name "global"`},
		{"regional vantage first", Config{Vantages: regionalFirst}, `vantage 0 ("eu-central") must be transparent`},
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
		})
	}
}

// TestGenerateRejectsInvalidConfig pins that Generate refuses out-of-range
// configs loudly (panic with the Validate error) rather than clamping.
func TestGenerateRejectsInvalidConfig(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("Generate accepted an invalid config")
		}
		err, ok := v.(error)
		if !ok || !strings.Contains(err.Error(), "Backends") {
			t.Fatalf("panic value = %v, want the Backends validation error", v)
		}
	}()
	Generate(Config{NumSites: 10, Backends: NumBackends + 1})
}
