package rank

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"toplists/internal/psl"
)

func TestNewAndLookup(t *testing.T) {
	r := MustNew([]string{"a.com", "b.com", "c.com"})
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.At(1) != "a.com" || r.At(3) != "c.com" {
		t.Error("At order wrong")
	}
	if rk, ok := r.RankOf("b.com"); !ok || rk != 2 {
		t.Errorf("RankOf(b.com) = %d, %v", rk, ok)
	}
	if _, ok := r.RankOf("zzz"); ok {
		t.Error("absent name found")
	}
	if !r.Contains("a.com") || r.Contains("nope") {
		t.Error("Contains wrong")
	}
}

func TestNewDuplicate(t *testing.T) {
	if _, err := New([]string{"a.com", "a.com"}); err == nil {
		t.Fatal("duplicate must error")
	}
}

func TestTopAndTopSet(t *testing.T) {
	r := MustNew([]string{"a", "b", "c", "d"})
	top := r.Top(2)
	if top.Len() != 2 || top.At(1) != "a" || top.At(2) != "b" {
		t.Error("Top(2) wrong")
	}
	if r.Top(99).Len() != 4 {
		t.Error("Top beyond length should clamp")
	}
	if r.Top(-1).Len() != 0 {
		t.Error("Top(-1) should be empty")
	}
	s := r.TopSet(3)
	if len(s) != 3 {
		t.Error("TopSet size")
	}
	if _, ok := s["d"]; ok {
		t.Error("TopSet included rank 4")
	}
}

func TestFilter(t *testing.T) {
	r := MustNew([]string{"a.com", "b.net", "c.com", "d.org"})
	f := r.Filter(func(n string) bool { return strings.HasSuffix(n, ".com") })
	if !reflect.DeepEqual(f.Names(), []string{"a.com", "c.com"}) {
		t.Errorf("Filter = %v", f.Names())
	}
}

func TestFromScoresAndTies(t *testing.T) {
	items := []Scored{
		{"bbb.com", 5}, {"aaa.com", 5}, {"ccc.com", 9}, {"ddd.com", 1},
	}
	r := FromScores(append([]Scored(nil), items...), TieLexicographic)
	want := []string{"ccc.com", "aaa.com", "bbb.com", "ddd.com"}
	if !reflect.DeepEqual(r.Names(), want) {
		t.Errorf("lexicographic = %v, want %v", r.Names(), want)
	}

	rh := FromScores(append([]Scored(nil), items...), TieHashed)
	if rh.At(1) != "ccc.com" || rh.At(4) != "ddd.com" {
		t.Error("hashed tie-break must preserve score ordering")
	}
}

func TestFromScoresDeterministic(t *testing.T) {
	items := func() []Scored {
		return []Scored{{"x", 1}, {"y", 1}, {"z", 1}, {"w", 1}}
	}
	a := FromScores(items(), TieHashed)
	b := FromScores(items(), TieHashed)
	if !reflect.DeepEqual(a.Names(), b.Names()) {
		t.Error("hashed tie-break not deterministic")
	}
}

func TestDowdall(t *testing.T) {
	a := MustNew([]string{"x.com", "y.com", "z.com"})
	b := MustNew([]string{"y.com", "z.com", "w.com"})
	// Scores: y 1/2+1, x 1, z 1/3+1/2, w 1/3.
	got := Dowdall(a.Table(), []*Ranking{a, b})
	want := []string{"y.com", "x.com", "z.com", "w.com"}
	if !reflect.DeepEqual(got.Names(), want) {
		t.Errorf("Dowdall = %v, want %v", got.Names(), want)
	}
	if got := Dowdall(a.Table(), nil); got.Len() != 0 {
		t.Errorf("Dowdall of no rankings has %d entries, want 0", got.Len())
	}
}

func TestBucketOf(t *testing.T) {
	bk := PaperBucketer
	cases := []struct {
		rank int
		want Bucket
	}{
		{1, Bucket1K}, {1000, Bucket1K}, {1001, Bucket10K},
		{10000, Bucket10K}, {10001, Bucket100K}, {100000, Bucket100K},
		{100001, Bucket1M}, {1000000, Bucket1M}, {1000001, BucketBeyond},
		{0, BucketBeyond}, {-5, BucketBeyond},
	}
	for _, c := range cases {
		if got := bk.BucketOf(c.rank); got != c.want {
			t.Errorf("BucketOf(%d) = %v, want %v", c.rank, got, c.want)
		}
	}
}

func TestBucketMonotoneProperty(t *testing.T) {
	err := quick.Check(func(a, b, nRaw uint32) bool {
		bk := ScaledMagnitudes(int(nRaw%2_000_000) + 1)
		ra, rb := int(a%2_000_000)+1, int(b%2_000_000)+1
		if ra > rb {
			ra, rb = rb, ra
		}
		return bk.BucketOf(ra) <= bk.BucketOf(rb)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestScaledMagnitudes(t *testing.T) {
	bk := ScaledMagnitudes(200_000)
	want := [4]int{200, 2_000, 20_000, 200_000}
	if bk.Magnitudes != want {
		t.Errorf("ScaledMagnitudes(200k) = %v, want %v", bk.Magnitudes, want)
	}
	if got := ScaledMagnitudes(5_000_000); got != PaperBucketer {
		t.Errorf("large n should give paper magnitudes, got %v", got)
	}
	// Tiny n must still produce strictly increasing cutoffs.
	tiny := ScaledMagnitudes(3)
	prev := 0
	for _, m := range tiny.Magnitudes {
		if m <= prev {
			t.Fatalf("non-increasing cutoffs: %v", tiny.Magnitudes)
		}
		prev = m
	}
}

func TestBucketerLabels(t *testing.T) {
	if PaperBucketer.Label(0) != "1K" || PaperBucketer.Label(3) != "1M" {
		t.Errorf("labels = %q %q", PaperBucketer.Label(0), PaperBucketer.Label(3))
	}
	if ScaledMagnitudes(5000).Label(0) != "5" {
		t.Errorf("scaled label = %q", ScaledMagnitudes(5000).Label(0))
	}
	if PaperBucketer.Label(9) != "beyond" {
		t.Error("out-of-range label")
	}
}

func TestBucketOfName(t *testing.T) {
	names := make([]string, 1500)
	for i := range names {
		names[i] = "site" + strings.Repeat("x", 1) + itoa(i)
	}
	r := MustNew(names)
	bk := PaperBucketer
	if bk.BucketOfName(r, names[0]) != Bucket1K {
		t.Error("rank 1 bucket")
	}
	if bk.BucketOfName(r, names[1200]) != Bucket10K {
		t.Error("rank 1201 bucket")
	}
	if bk.BucketOfName(r, "missing") != BucketBeyond {
		t.Error("missing bucket")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestBucketString(t *testing.T) {
	seen := map[string]bool{}
	for b := Bucket(0); int(b) < NumBuckets; b++ {
		s := b.String()
		if s == "" || seen[s] {
			t.Errorf("bucket %d string %q empty or duplicate", b, s)
		}
		seen[s] = true
	}
}

func TestNormalizePSL(t *testing.T) {
	// Umbrella-style FQDN list: multiple names per registrable domain,
	// plus a bare public suffix that must be dropped.
	r := MustNew([]string{
		"com",                 // rank 1: bare suffix, dropped
		"www.google.com",      // rank 2 -> google.com
		"api.google.com",      // rank 3 -> google.com (dup)
		"example.co.uk",       // rank 4 -> example.co.uk (already registrable)
		"cdn.shop.example.de", // rank 5 -> example.de
	})
	norm, stats := r.NormalizePSL(psl.Default())
	want := []string{"google.com", "example.co.uk", "example.de"}
	if !reflect.DeepEqual(norm.Names(), want) {
		t.Errorf("normalized = %v, want %v", norm.Names(), want)
	}
	if stats.Entries != 5 || stats.Dropped != 1 || stats.Groups != 3 {
		t.Errorf("stats = %+v", stats)
	}
	// Deviating: "com", "www.google.com", "api.google.com",
	// "cdn.shop.example.de" = 4 of 5.
	if stats.Deviating != 4 {
		t.Errorf("Deviating = %d, want 4", stats.Deviating)
	}
	if pct := stats.DeviationPct(); pct != 80 {
		t.Errorf("DeviationPct = %v, want 80", pct)
	}
}

func TestNormalizePSLAlreadyNormal(t *testing.T) {
	r := MustNew([]string{"google.com", "example.co.uk", "foo.de"})
	norm, stats := r.NormalizePSL(psl.Default())
	if !reflect.DeepEqual(norm.Names(), r.Names()) {
		t.Error("already-normal list changed")
	}
	if stats.Deviating != 0 || stats.DeviationPct() != 0 {
		t.Errorf("stats = %+v, want no deviation", stats)
	}
}

func TestNormalizePSLMinRankKept(t *testing.T) {
	r := MustNew([]string{
		"a.example.com", // rank 1 -> example.com
		"other.net",     // rank 2
		"example.com",   // rank 3 -> example.com, but rank 1 already holds
	})
	norm, _ := r.NormalizePSL(psl.Default())
	if rk, _ := norm.RankOf("example.com"); rk != 1 {
		t.Errorf("example.com rank = %d, want 1 (min rank)", rk)
	}
}
