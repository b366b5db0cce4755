package experiments

import (
	"fmt"
	"io"
	"sync"

	"toplists/internal/cfmetrics"
	"toplists/internal/core"
	"toplists/internal/report"
	"toplists/internal/traffic"
)

// AttackResult measures list manipulation (an extension reproducing the
// threat model behind Tranco [18] and the infiltration attacks of
// Rweyemamu et al. [26]): an attacker joins the Alexa panel with a handful
// of machines that browse one mid-tail target site all month. The same real
// traffic is a rounding error at the Cloudflare edge but a large slice of
// the sparse panel, so the target rockets up Alexa while the amalgam and
// the server-side truth barely move.
type AttackResult struct {
	// TargetTrueRank is the target's ground-truth popularity rank.
	TargetTrueRank int
	// Rows, one per attacker budget (number of Sybil machines).
	Rows []AttackRow
	// BaselineAlexaRank etc. record the no-attack ranks (0 = unranked).
	BaselineAlexaRank, BaselineTrancoRank, BaselineCFRank int
	Scale                                                 core.Config
}

// AttackRow is the outcome for one attacker budget.
type AttackRow struct {
	// Sybils is the number of attacker machines.
	Sybils int
	// AlexaRank, TrancoRank, CFRank are the target's achieved ranks on the
	// final day (0 = unranked).
	AlexaRank, TrancoRank, CFRank int
}

// ID implements Result.
func (r *AttackResult) ID() string { return "attack" }

// RunAttack runs the baseline plus one study per budget. The target is the
// site at one third of the universe depth — popular enough to be measured,
// far from the head.
func RunAttack(scale core.Config, budgets []int) (*AttackResult, error) {
	if len(budgets) == 0 {
		return nil, fmt.Errorf("experiments: attack needs at least one budget")
	}
	probe := core.NewStudy(scale)
	target := int32(probe.World.NumSites() / 3)
	targetDomain := probe.World.Site(target).Domain

	res := &AttackResult{TargetTrueRank: int(target) + 1, Scale: scale}

	measure := func(sybils int) (alexa, tranco, cf int) {
		cfg := scale
		if sybils > 0 {
			// Each machine stays low-volume: the attack's power comes from
			// panel leverage, not raw traffic.
			cfg.Sybils = []traffic.SybilSpec{{
				Site: target, Clients: sybils, LoadsPerDay: 10, JoinDay: 0,
			}}
		}
		s := core.NewStudy(cfg)
		s.Run()
		defer s.Close()
		day := evalDay(s)
		alexa, _ = s.Artifacts().Normalized(s.Alexa, day).RankOf(targetDomain)
		tranco, _ = s.Tranco.Raw(day).RankOf(targetDomain)
		cf, _ = s.Artifacts().MetricRanking(day, cfmetrics.MAllRequests).RankOf(targetDomain)
		return alexa, tranco, cf
	}

	// The baseline and each budget are independent studies; run them in
	// parallel.
	type outcome struct{ alexa, tranco, cf int }
	outcomes := make([]outcome, len(budgets)+1)
	var wg sync.WaitGroup
	for i, b := range append([]int{0}, budgets...) {
		wg.Add(1)
		go func(i, b int) {
			defer wg.Done()
			a, tr, cf := measure(b)
			outcomes[i] = outcome{a, tr, cf}
		}(i, b)
	}
	wg.Wait()
	res.BaselineAlexaRank = outcomes[0].alexa
	res.BaselineTrancoRank = outcomes[0].tranco
	res.BaselineCFRank = outcomes[0].cf
	for i, b := range budgets {
		o := outcomes[i+1]
		res.Rows = append(res.Rows, AttackRow{Sybils: b, AlexaRank: o.alexa, TrancoRank: o.tranco, CFRank: o.cf})
	}
	return res, nil
}

// Render implements Result.
func (r *AttackResult) Render(w io.Writer) error {
	tbl := report.NewTable(
		fmt.Sprintf("List Manipulation (extension): Sybil panel attack on true-rank-%d site (sites=%d clients=%d days=%d)",
			r.TargetTrueRank, r.Scale.NumSites, r.Scale.NumClients, r.Scale.Days),
		"Sybil machines", "Alexa rank", "Tranco rank", "Cloudflare rank")
	fmtRank := func(v int) string {
		if v == 0 {
			return "unranked"
		}
		return fmt.Sprintf("%d", v)
	}
	tbl.AddRow("0 (baseline)", fmtRank(r.BaselineAlexaRank),
		fmtRank(r.BaselineTrancoRank), fmtRank(r.BaselineCFRank))
	for _, row := range r.Rows {
		tbl.AddRow(fmt.Sprintf("%d", row.Sybils), fmtRank(row.AlexaRank),
			fmtRank(row.TrancoRank), fmtRank(row.CFRank))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	io.WriteString(w, "\nreading: a handful of machines hijacks Alexa's sparse panel;\n")
	io.WriteString(w, "the 30-day multi-list amalgam and the edge's request volume resist.\n")
	return nil
}
