package domain

import "testing"

// FuzzParseOrigin feeds arbitrary strings to ParseOrigin, which reads
// origins from outside the process (CrUX entries): it must never panic,
// an error must come with the zero Origin, and an accepted origin must
// re-parse from its canonical String form to the same Origin.
func FuzzParseOrigin(f *testing.F) {
	for _, s := range []string{
		"https://google.com",
		"http://Example.COM",
		"http://example.com:8080",
		"https://example.com:443",
		"https://example.com.",
		"https://example.com:",
		"https://example.com:0",
		"https://example.com:65536",
		"https://example.com/path",
		"ftp://example.com",
		"https://",
		"https://a..b",
		"https://-a.com",
		"https://a_b.example",
		"https://example.com:8080:1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		o, err := ParseOrigin(s)
		if err != nil {
			if o != (Origin{}) {
				t.Fatalf("ParseOrigin(%q) = %+v with error %v, want the zero Origin", s, o, err)
			}
			return
		}
		again, err := ParseOrigin(o.String())
		if err != nil {
			t.Fatalf("ParseOrigin(%q) = %+v, but its String %q fails to parse: %v", s, o, o.String(), err)
		}
		if again != o {
			t.Fatalf("ParseOrigin(%q) = %+v, but its String %q parses to %+v", s, o, o.String(), again)
		}
	})
}
