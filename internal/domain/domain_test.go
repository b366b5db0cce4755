package domain

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Example.COM", "example.com"},
		{"example.com.", "example.com"},
		{"EXAMPLE.com.", "example.com"},
		{"already.lower", "already.lower"},
		{"", ""},
		{".", ""},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	err := quick.Check(func(s string) bool {
		once := Normalize(s)
		return Normalize(once) == once
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLabelsRoundTrip(t *testing.T) {
	err := quick.Check(func(parts []uint8) bool {
		if len(parts) == 0 || len(parts) > 10 {
			return true
		}
		labels := make([]string, len(parts))
		for i, p := range parts {
			labels[i] = strings.Repeat("a", int(p%5)+1)
		}
		name := strings.Join(labels, ".")
		got := Labels(name)
		return len(got) == len(labels)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
