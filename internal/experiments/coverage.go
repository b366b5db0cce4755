package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"toplists/internal/core"
	"toplists/internal/psl"
	"toplists/internal/report"
)

// Table1Result holds Cloudflare coverage of top lists (Table 1): the
// percentage of each list's entries, at each rank magnitude, that are
// served by Cloudflare per the HEAD probe.
type Table1Result struct {
	Lists      []string
	Magnitudes []int
	// CoveragePct[list][magnitude].
	CoveragePct [][]float64
	Day         int
}

// ID implements Result.
func (r *Table1Result) ID() string { return "tab1" }

// RunTable1 computes Table 1 by probing each list's raw entries on the
// evaluation day. The probe sweep honors ctx; cancellation returns the
// context's error rather than a table built from a partial probe.
func RunTable1(ctx context.Context, s *core.Study) (*Table1Result, error) {
	lists := s.Lists()
	day := evalDay(s)
	res := &Table1Result{Day: day, Magnitudes: s.Bucketer.Magnitudes[:]}

	// One probe over all entries: the study's probe table sweeps each
	// distinct host once, and not at all if an earlier sweep covered it.
	var all []string
	rawTops := make([][]string, len(lists))
	for li, l := range lists {
		raw := l.Raw(day)
		limit := s.Bucketer.Magnitudes[3]
		if limit > raw.Len() {
			limit = raw.Len()
		}
		hosts := make([]string, 0, limit)
		for i := 1; i <= limit; i++ {
			hosts = append(hosts, entryHost(raw.At(i)))
		}
		rawTops[li] = hosts
		all = append(all, hosts...)
		res.Lists = append(res.Lists, l.Name())
	}
	cf, err := s.ProbeHostsContext(ctx, all)
	if err != nil {
		return nil, err
	}

	res.CoveragePct = make([][]float64, len(lists))
	for li := range lists {
		res.CoveragePct[li] = make([]float64, len(res.Magnitudes))
		for mi, mag := range res.Magnitudes {
			n := mag
			if n > len(rawTops[li]) {
				n = len(rawTops[li])
			}
			if n == 0 {
				continue
			}
			hit := 0
			for _, h := range rawTops[li][:n] {
				if _, ok := cf[h]; ok {
					hit++
				}
			}
			res.CoveragePct[li][mi] = 100 * float64(hit) / float64(n)
		}
	}
	return res, nil
}

// Coverage returns one list's coverage at magnitude index mi.
func (r *Table1Result) Coverage(list string, mi int) float64 {
	for li, n := range r.Lists {
		if n == list {
			return r.CoveragePct[li][mi]
		}
	}
	return 0
}

// entryHost converts a raw list entry (domain, FQDN, or origin) to a
// probeable hostname.
func entryHost(entry string) string {
	s := strings.TrimPrefix(entry, "https://")
	s = strings.TrimPrefix(s, "http://")
	if i := strings.IndexByte(s, ':'); i >= 0 {
		s = s[:i]
	}
	return s
}

// Render implements Result.
func (r *Table1Result) Render(w io.Writer) error {
	headers := []string{"Top List"}
	for mi := range r.Magnitudes {
		headers = append(headers, magLabel(r.Magnitudes[mi]))
	}
	tbl := report.NewTable("Table 1: Cloudflare Coverage of Top Lists (%)", headers...)
	for li, l := range r.Lists {
		cells := []string{l}
		for mi := range r.Magnitudes {
			cells = append(cells, fmt.Sprintf("%.2f", r.CoveragePct[li][mi]))
		}
		tbl.AddRow(cells...)
	}
	return tbl.Render(w)
}

func magLabel(m int) string {
	switch {
	case m >= 1_000_000 && m%1_000_000 == 0:
		return fmt.Sprintf("%dM", m/1_000_000)
	case m >= 1_000 && m%1_000 == 0:
		return fmt.Sprintf("%dK", m/1_000)
	default:
		return fmt.Sprintf("%d", m)
	}
}

// Table2Result holds the PSL deviation analysis (Table 2): the percentage
// of each list's entries, per magnitude, that are not already registrable
// domains.
type Table2Result struct {
	Lists        []string
	Magnitudes   []int
	DeviationPct [][]float64
	Day          int
}

// ID implements Result.
func (r *Table2Result) ID() string { return "tab2" }

// RunTable2 computes Table 2.
func RunTable2(s *core.Study) *Table2Result {
	lists := s.Lists()
	day := evalDay(s)
	res := &Table2Result{Day: day, Magnitudes: s.Bucketer.Magnitudes[:]}
	res.DeviationPct = make([][]float64, len(lists))
	for li, l := range lists {
		res.Lists = append(res.Lists, l.Name())
		res.DeviationPct[li] = make([]float64, len(res.Magnitudes))
		raw := l.Raw(day)
		for mi, mag := range res.Magnitudes {
			n := mag
			if n > raw.Len() {
				n = raw.Len()
			}
			if n == 0 {
				continue
			}
			dev := 0
			for i := 1; i <= n; i++ {
				if deviatesFromPSL(raw.At(i), s.PSL) {
					dev++
				}
			}
			res.DeviationPct[li][mi] = 100 * float64(dev) / float64(n)
		}
	}
	return res
}

// deviatesFromPSL reports whether a raw entry is not already in PSL
// registrable-domain form. Origins are judged by their host.
func deviatesFromPSL(entry string, l *psl.List) bool {
	host := entryHost(entry)
	etld1, ok := l.RegisteredDomain(host)
	return !ok || etld1 != host
}

// Deviation returns one list's deviation at magnitude index mi.
func (r *Table2Result) Deviation(list string, mi int) float64 {
	for li, n := range r.Lists {
		if n == list {
			return r.DeviationPct[li][mi]
		}
	}
	return 0
}

// Render implements Result.
func (r *Table2Result) Render(w io.Writer) error {
	headers := []string{"Top List"}
	for _, m := range r.Magnitudes {
		headers = append(headers, magLabel(m))
	}
	tbl := report.NewTable("Table 2: Percent of Entries Deviating from Public Suffix List", headers...)
	for li, l := range r.Lists {
		cells := []string{l}
		for mi := range r.Magnitudes {
			cells = append(cells, fmt.Sprintf("%.2f", r.DeviationPct[li][mi]))
		}
		tbl.AddRow(cells...)
	}
	return tbl.Render(w)
}
