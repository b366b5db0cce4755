// Categorybias: the Section 6.4 analysis as a standalone program. It runs a
// small study, then fits the per-category logistic regressions for two
// contrasting lists — Alexa (extension panel, blind to private-mode
// browsing) and CrUX (Chrome telemetry) — and prints their odds of
// including each website category relative to the rest of the Cloudflare
// top-100K universe.
package main

import (
	"fmt"
	"log"

	"toplists/internal/cfmetrics"
	"toplists/internal/core"
	"toplists/internal/world"
)

func main() {
	log.SetFlags(0)
	study := core.NewStudy(core.Config{
		Seed:       21,
		NumSites:   10000,
		NumClients: 2000,
		Days:       7,
	})
	study.Run()
	defer study.Close()
	fmt.Println(study.Describe())

	day := study.Cfg.Days - 1
	universe := study.Pipeline.MetricRanking(day, cfmetrics.MAllRequests)
	topK := study.Bucketer.Magnitudes[2]

	fmt.Printf("\nodds of inclusion by category (universe: Cloudflare top %d)\n", topK)
	fmt.Printf("%-14s %10s %10s\n", "category", "Alexa", "CrUX")

	art := study.Artifacts()
	alexaList := art.Normalized(study.Alexa, day)
	cruxList := art.Normalized(study.Crux, day)
	alexaOdds, err := core.CategoryBias(study.World, universe, alexaList, topK)
	if err != nil {
		log.Fatal(err)
	}
	cruxOdds, err := core.CategoryBias(study.World, universe, cruxList, topK)
	if err != nil {
		log.Fatal(err)
	}

	for i, cat := range world.AllCategories() {
		a, c := alexaOdds[i], cruxOdds[i]
		fmt.Printf("%-14s %10s %10s\n", cat, cell(a), cell(c))
	}
	fmt.Println("\n('*' marks p<0.01 after Bonferroni; '-' means no such sites in the universe)")
	fmt.Println("expected shape: Adult and Gambling far below 1.0 for Alexa but not CrUX.")
}

func cell(o core.CategoryOdds) string {
	if o.Included+o.Excluded == 0 {
		return "-"
	}
	mark := " "
	if o.Significant {
		mark = "*"
	}
	return fmt.Sprintf("%.2fx%s", o.OddsRatio, mark)
}
