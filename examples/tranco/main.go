// Tranco: build a Tranco-style amalgam list from daily Alexa, Umbrella, and
// Majestic snapshots and demonstrate the property it was designed for
// (Le Pochat et al., NDSS 2019): temporal stability. The example measures
// day-over-day Jaccard similarity of each list's head and shows the
// amalgam's churn sitting well below its most volatile input.
package main

import (
	"fmt"
	"log"

	"toplists/internal/chrome"
	"toplists/internal/linkgraph"
	"toplists/internal/providers"
	"toplists/internal/psl"
	"toplists/internal/rank"
	"toplists/internal/simrand"
	"toplists/internal/stats"
	"toplists/internal/traffic"
	"toplists/internal/world"
)

func main() {
	log.SetFlags(0)
	const days = 10
	const seed = 11

	w := world.Generate(world.Config{Seed: seed, NumSites: 6000})
	l := psl.Default()
	graph := linkgraph.Build(w, linkgraph.Config{}, simrand.New(seed).Derive("linkgraph"))

	alexa := providers.NewAlexa(w)
	umbrella := providers.NewUmbrella(w, l)
	majestic := providers.NewMajestic(w, graph)
	telemetry := chrome.NewTelemetry(w)

	engine := traffic.NewEngine(w, traffic.Config{Seed: seed + 1, NumClients: 1200, Days: days})
	engine.AddSink(alexa)
	engine.AddSink(umbrella)
	engine.AddSink(telemetry)
	engine.Run()

	// Every list is normalized through one memoizing normalizer over the
	// world's name table, the same way a study's artifact store does.
	nz := rank.NewNormalizer(w.Interner(), l)
	tranco := providers.NewTranco(alexa, umbrella, majestic, providers.NewNormMemo(nz))
	for d := 0; d < days; d++ {
		tranco.ComputeDay(d)
	}

	const head = 200
	churn := func(p providers.List) float64 {
		var sims []float64
		for d := 1; d < days; d++ {
			prev, _ := p.Normalized(d-1, nz)
			cur, _ := p.Normalized(d, nz)
			sims = append(sims, stats.JaccardIDs(prev.TopSetIDs(head), cur.TopSetIDs(head)))
		}
		return stats.Mean(sims)
	}

	fmt.Printf("day-over-day top-%d Jaccard similarity (higher = more stable):\n\n", head)
	for _, p := range []providers.List{alexa, umbrella, majestic, tranco} {
		fmt.Printf("  %-10s %.3f\n", p.Name(), churn(p))
	}

	day := days - 1
	t, _ := tranco.Normalized(day, nz)
	fmt.Printf("\nfinal Tranco day: %d ranked domains; head of list:\n", t.Len())
	for i := 1; i <= 10 && i <= t.Len(); i++ {
		name := t.At(i)
		if trueRank, ok := w.TrueRank().RankOf(name); ok {
			fmt.Printf("  #%-3d %-35s (true rank %d)\n", i, name, trueRank)
		} else {
			// Umbrella feeds Tranco DNS names that are not websites at
			// all (telemetry endpoints, update servers); the amalgam
			// inherits them, just like the real list does.
			fmt.Printf("  #%-3d %-35s (not a website: DNS infrastructure)\n", i, name)
		}
	}
}
