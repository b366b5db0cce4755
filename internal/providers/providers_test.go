package providers

import (
	"strings"
	"testing"

	"toplists/internal/chrome"
	"toplists/internal/linkgraph"
	"toplists/internal/psl"
	"toplists/internal/rank"
	"toplists/internal/simrand"
	"toplists/internal/stats"
	"toplists/internal/traffic"
	"toplists/internal/world"
)

// fixture wires the full provider stack over a small world.
type fixture struct {
	w        *world.World
	alexa    *Alexa
	umbrella *Umbrella
	majestic *Majestic
	secrank  *Secrank
	tranco   *Tranco
	trexa    *Trexa
	crux     *Crux
	// nz normalizes every list, as a study's artifact store does.
	nz   *rank.Normalizer
	days int
}

func buildFixture(t testing.TB, seed uint64, days int) *fixture {
	t.Helper()
	w := world.Generate(world.Config{Seed: seed, NumSites: 2000})
	l := psl.Default()
	g := linkgraph.Build(w, linkgraph.Config{}, simrand.New(seed).Derive("linkgraph"))

	f := &fixture{
		w:        w,
		alexa:    NewAlexa(w),
		umbrella: NewUmbrella(w, l),
		majestic: NewMajestic(w, g),
		secrank:  NewSecrank(w, l),
		nz:       rank.NewNormalizer(w.Interner(), l),
		days:     days,
	}
	tel := chrome.NewTelemetry(w)

	e := traffic.NewEngine(w, traffic.Config{Seed: seed + 1, NumClients: 1500, Days: days})
	e.AddSink(f.alexa)
	e.AddSink(f.umbrella)
	e.AddSink(f.secrank)
	e.AddSink(tel)
	e.Run()

	f.tranco = NewTranco(f.alexa, f.umbrella, f.majestic, NewNormMemo(f.nz))
	f.trexa = NewTrexa(f.alexa, f.tranco)
	for d := 0; d < days; d++ {
		f.tranco.ComputeDay(d)
		f.trexa.ComputeDay(d)
	}
	f.crux = NewCrux(tel, 2)
	return f
}

func (f *fixture) all() []List {
	return []List{f.alexa, f.majestic, f.secrank, f.tranco, f.trexa, f.umbrella, f.crux}
}

func TestAllProvidersProduceLists(t *testing.T) {
	f := buildFixture(t, 61, 3)
	for _, p := range f.all() {
		for d := 0; d < f.days; d++ {
			raw := p.Raw(d)
			if raw.Len() == 0 {
				t.Fatalf("%s day %d: empty list", p.Name(), d)
			}
			norm, st := p.Normalized(d, f.nz)
			if norm.Len() == 0 {
				t.Fatalf("%s day %d: empty normalized list", p.Name(), d)
			}
			if st.Entries != raw.Len() {
				t.Fatalf("%s: stats entries %d != raw %d", p.Name(), st.Entries, raw.Len())
			}
		}
		if p.Name() == "" {
			t.Fatal("empty provider name")
		}
	}
}

func TestOnlyCruxIsBucketed(t *testing.T) {
	f := buildFixture(t, 61, 2)
	for _, p := range f.all() {
		want := p.Name() == "CrUX"
		if p.Bucketed() != want {
			t.Errorf("%s Bucketed = %v", p.Name(), p.Bucketed())
		}
	}
}

// TestPSLDeviationShape reproduces the Table 2 shape: domain-keyed lists
// deviate ~0%, Umbrella (FQDNs) and CrUX (origins) deviate heavily.
func TestPSLDeviationShape(t *testing.T) {
	f := buildFixture(t, 63, 2)
	dev := map[string]float64{}
	for _, p := range f.all() {
		_, st := p.Normalized(1, f.nz)
		dev[p.Name()] = st.DeviationPct()
	}
	for _, name := range []string{"Alexa", "Majestic", "Secrank", "Tranco", "Trexa"} {
		if dev[name] > 5 {
			t.Errorf("%s deviation %.1f%%, want ~0", name, dev[name])
		}
	}
	if dev["Umbrella"] < 40 {
		t.Errorf("Umbrella deviation %.1f%%, want high", dev["Umbrella"])
	}
	if dev["CrUX"] < 30 {
		t.Errorf("CrUX deviation %.1f%%, want high", dev["CrUX"])
	}
}

func TestUmbrellaRanksBareSuffixesAtTop(t *testing.T) {
	f := buildFixture(t, 65, 2)
	raw := f.umbrella.Raw(1)
	l := psl.Default()
	// Some bare public suffix (e.g. "com") must appear in the top 10,
	// as ".com is ranked #1" in the real list.
	found := false
	for i := 1; i <= 10 && i <= raw.Len(); i++ {
		if l.IsPublicSuffix(raw.At(i)) {
			found = true
			break
		}
	}
	if !found {
		head := raw.Names()
		if len(head) > 10 {
			head = head[:10]
		}
		t.Errorf("no bare suffix in Umbrella top 10: %v", head)
	}
}

func TestUmbrellaIncludesInfraNames(t *testing.T) {
	f := buildFixture(t, 65, 2)
	raw := f.umbrella.Raw(1)
	infra := 0
	limit := raw.Len()
	if limit > 200 {
		limit = 200
	}
	for i := 1; i <= limit; i++ {
		name := raw.At(i)
		if strings.Contains(name, "telemetry") || strings.Contains(name, "update") ||
			strings.Contains(name, "push") || strings.Contains(name, "beacon") ||
			strings.Contains(name, "time") || strings.Contains(name, "ocsp") {
			infra++
		}
	}
	if infra == 0 {
		t.Error("no infrastructure names near the Umbrella head")
	}
}

func TestAlexaExcludesPrivateModeCategories(t *testing.T) {
	// Adult sites must be underrepresented in Alexa relative to their true
	// popularity: panel extensions see no private-mode loads.
	f := buildFixture(t, 67, 3)
	raw := f.alexa.Raw(2)
	adultInTop, adultInTruth := 0, 0
	n := 200
	for i := 1; i <= n && i <= raw.Len(); i++ {
		if id, ok := f.w.ByDomain(raw.At(i)); ok && f.w.Site(id).Category == world.Adult {
			adultInTop++
		}
	}
	for i := 0; i < n; i++ {
		if f.w.Site(int32(i)).Category == world.Adult {
			adultInTruth++
		}
	}
	if adultInTruth == 0 {
		t.Skip("no popular adult sites at this scale")
	}
	if adultInTop >= adultInTruth {
		t.Errorf("alexa top-%d has %d adult sites, truth has %d; expected fewer",
			n, adultInTop, adultInTruth)
	}
}

func TestSecrankIsChinaCentric(t *testing.T) {
	f := buildFixture(t, 69, 3)
	raw := f.secrank.Raw(2)
	cn, other := 0, 0
	limit := raw.Len()
	if limit > 300 {
		limit = 300
	}
	for i := 1; i <= limit; i++ {
		id, ok := f.w.ByDomain(raw.At(i))
		if !ok {
			continue // infra-derived domain
		}
		if f.w.Site(id).Home == world.CN {
			cn++
		} else {
			other++
		}
	}
	// CN produces ~21% of sites but ~100% of Secrank's vantage; its list
	// head must over-represent Chinese sites by a wide margin.
	if cn*2 < other {
		t.Errorf("secrank head: %d CN vs %d other; want CN-dominated", cn, other)
	}
}

func TestTrancoAveragesItsInputs(t *testing.T) {
	f := buildFixture(t, 71, 3)
	day := 2
	n := 300
	top := func(p List) []string {
		norm, _ := p.Normalized(day, f.nz)
		names := norm.Names()
		if len(names) > n {
			names = names[:n]
		}
		return names
	}
	truth := f.w.TrueRank().Names()[:n]
	jac := func(p List) float64 { return stats.JaccardSlices(top(p), truth) }

	ja, jm, jt := jac(f.alexa), jac(f.majestic), jac(f.tranco)
	lo, hi := ja, jm
	if lo > hi {
		lo, hi = hi, lo
	}
	// Tranco should land in the general vicinity of its inputs — not
	// dramatically below the worst of them.
	if jt < lo*0.5 {
		t.Errorf("tranco jaccard %.3f far below inputs [%.3f, %.3f]", jt, lo, hi)
	}
}

func TestTrexaInterleavesWithoutDuplicates(t *testing.T) {
	f := buildFixture(t, 71, 2)
	raw := f.trexa.Raw(1)
	seen := map[string]bool{}
	for i := 1; i <= raw.Len(); i++ {
		name := raw.At(i)
		if seen[name] {
			t.Fatalf("duplicate %q in trexa", name)
		}
		seen[name] = true
	}
	// Trexa must contain everything from both inputs.
	a, _ := f.alexa.Normalized(1, f.nz)
	for _, name := range a.Names() {
		if !seen[name] {
			t.Fatalf("alexa entry %q missing from trexa", name)
		}
	}
}

func TestTrexaWeightsTowardAlexa(t *testing.T) {
	f := buildFixture(t, 73, 2)
	a, _ := f.alexa.Normalized(1, f.nz)
	if a.Len() < 30 {
		t.Skip("alexa list too small")
	}
	trexa := f.trexa.Raw(1)
	// Among the first 30 Trexa entries, Alexa-ranked names should be the
	// majority given the 2:1 interleave.
	fromAlexaTop := 0
	for i := 1; i <= 30; i++ {
		if r, ok := a.RankOf(trexa.At(i)); ok && r <= 30 {
			fromAlexaTop++
		}
	}
	if fromAlexaTop < 15 {
		t.Errorf("only %d of trexa top 30 from alexa top 30", fromAlexaTop)
	}
}

func TestCruxEntriesAreOrigins(t *testing.T) {
	f := buildFixture(t, 75, 2)
	raw := f.crux.Raw(0)
	if raw.Len() == 0 {
		t.Fatal("empty crux list")
	}
	for _, o := range raw.Names() {
		if !strings.HasPrefix(o, "http://") && !strings.HasPrefix(o, "https://") {
			t.Fatalf("crux entry %q is not an origin", o)
		}
	}
	// Raw is identical for every day: monthly dataset.
	if f.crux.Raw(1) != raw {
		t.Error("crux raw list should be the same monthly object")
	}
}

func TestCanonicalOrder(t *testing.T) {
	f := buildFixture(t, 75, 1)
	names := map[string]bool{}
	for _, p := range f.all() {
		names[p.Name()] = true
	}
	for _, want := range CanonicalOrder() {
		if !names[want] {
			t.Errorf("canonical name %q has no provider", want)
		}
	}
	if len(CanonicalOrder()) != 7 {
		t.Error("want 7 canonical names")
	}
}

func TestProvidersDeterministic(t *testing.T) {
	f1 := buildFixture(t, 77, 2)
	f2 := buildFixture(t, 77, 2)
	for i, p1 := range f1.all() {
		p2 := f2.all()[i]
		a, b := p1.Raw(1), p2.Raw(1)
		if a.Len() != b.Len() {
			t.Fatalf("%s lengths differ", p1.Name())
		}
		for j := 1; j <= a.Len(); j++ {
			if a.At(j) != b.At(j) {
				t.Fatalf("%s diverges at %d", p1.Name(), j)
			}
		}
	}
}
