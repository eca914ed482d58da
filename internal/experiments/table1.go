package experiments

import (
	"context"
	"fmt"
	"strings"

	"dnscde/internal/dnswire"
	"dnscde/internal/population"
	"dnscde/internal/simtest"
	"dnscde/internal/smtpsim"
	"dnscde/internal/stats"
)

// TableI reproduces Table I: the DNS query types triggered while probing
// the enterprise (SMTP) population. One probe email is sent to each
// enterprise's server; the query types arriving at the CDE nameservers
// are classified per category and the per-server fractions reported.
func TableI(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rng := cfg.rng()
	w, err := cfg.world()
	if err != nil {
		return nil, err
	}
	// Table I compares population *shares*, which need a decent sample;
	// one email per server is cheap, so floor the size near the paper's 1K.
	size := cfg.Enterprises
	if size < 600 {
		size = 600
	}
	dataset := population.Generate(population.Enterprises, size, rng)

	counts := map[string]int{}
	for i, spec := range dataset.Specs {
		srv, err := deployEnterprise(w, spec, int64(i))
		if err != nil {
			return nil, fmt.Errorf("deploying %s: %w", spec.Name, err)
		}
		// One probe email with a unique prober-owned sender domain.
		session, err := w.Infra.NewFlatSession()
		if err != nil {
			return nil, err
		}
		if err := smtpsim.SendProbe(ctx, srv, session.Honey); err != nil {
			return nil, fmt.Errorf("probing %s: %w", spec.Name, err)
		}
		for category := range classifyQueries(w, session.Honey) {
			counts[category]++
		}
	}

	total := float64(len(dataset.Specs))
	measured := map[string]float64{}
	for category, c := range counts {
		measured[category] = float64(c) / total
	}

	rows := []struct {
		label, key string
		paper      float64
	}{
		{"Modern SPF queries (TXT qtype)", "spf-txt", 0.696},
		{"Obsolete SPF [RFC7208] (SPF qtype)", "spf-qtype", 0.142},
		{"ADSP (w/DKIM)", "adsp", 0.02},
		{"DKIM", "dkim", 0.003},
		{"DMARC", "dmarc", 0.353},
		{"MX/A queries for sending email server", "mx-bounce", 0.304},
	}
	table := &stats.Table{Header: []string{"Query type", "Paper", "Measured"}}
	report := &Report{ID: "table1", Title: "DNS queries generated during the SMTP population data collection"}
	for _, row := range rows {
		table.AddRow(row.label, stats.FormatPercent(row.paper), stats.FormatPercent(measured[row.key]))
		tolerance := 0.05
		if row.paper < 0.05 {
			tolerance = 0.02
		}
		report.Checks = append(report.Checks, Check{
			Name: row.label, Paper: row.paper, Measured: measured[row.key], Tolerance: tolerance,
		})
	}
	report.Text = table.String()
	return report, nil
}

// classifyQueries reads the log entries at or under the fresh probe sender
// domain (every Table I category lives there) and returns the categories
// they belong to.
func classifyQueries(w *simtest.World, senderDomain string) map[string]bool {
	senderDomain = dnswire.CanonicalName(senderDomain)
	out := make(map[string]bool)
	entries, _ := w.Infra.Parent.Log().EntriesSince(senderDomain, 0)
	for _, e := range entries {
		name := e.Q.Name
		switch {
		case name == senderDomain && e.Q.Type == dnswire.TypeTXT:
			out["spf-txt"] = true
		case name == senderDomain && e.Q.Type == dnswire.TypeSPF:
			out["spf-qtype"] = true
		case name == "_dmarc."+senderDomain:
			out["dmarc"] = true
		case name == "_adsp._domainkey."+senderDomain:
			out["adsp"] = true
		case strings.HasSuffix(name, "._domainkey."+senderDomain) && !strings.Contains(name, "_adsp"):
			out["dkim"] = true
		case name == senderDomain && (e.Q.Type == dnswire.TypeMX || e.Q.Type == dnswire.TypeA):
			out["mx-bounce"] = true
		}
	}
	return out
}

// deployEnterprise builds the enterprise's resolution platform and SMTP
// server from its spec.
func deployEnterprise(w *simtest.World, spec population.NetworkSpec, seed int64) (*smtpsim.Server, error) {
	plat, err := deployPlatform(w, spec, seed)
	if err != nil {
		return nil, err
	}
	resolver := w.NewStub(plat.Config().IngressIPs[0])
	return smtpsim.NewServer(fmt.Sprintf("%s.example", spec.Name), spec.SMTPPolicy, resolver), nil
}
