package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/crp"
	"repro/internal/cdn"
)

// This file implements the paper's §VI deployment guidance as runnable
// experiments: adaptive CDN-name selection (reject names whose answers
// carry no positioning information) and the query-overhead accounting
// behind the claim that a CRP service is commensalistic with the CDNs it
// reuses.

// NameSelectionRow reports one CDN name's measured quality and the
// selector's verdict.
type NameSelectionRow struct {
	Quality crp.NameQuality
	Kept    bool
}

// RunNameSelection deploys a CDN that serves the scenario's regular names
// plus one "owned-domain" global name (answered from the CDN's distant
// default servers for everyone), has a sample of clients bootstrap against
// all names — recording redirections and bootstrap pings — and runs the
// paper's two §VI selection rules. The regular names must survive and the
// global name must be rejected.
func (s *World) RunNameSelection(sampleClients, bootstrapProbes int) ([]NameSelectionRow, error) {
	if sampleClients <= 0 {
		sampleClients = 30
	}
	if bootstrapProbes <= 0 {
		bootstrapProbes = 10
	}
	if sampleClients > len(s.Clients) {
		sampleClients = len(s.Clients)
	}

	const globalName = "a1105.akam-owned.cdn.sim."
	network, err := cdn.New(cdn.Config{Topo: s.Topo, GlobalNames: []string{globalName}})
	if err != nil {
		return nil, fmt.Errorf("deploy name-selection CDN: %w", err)
	}

	selector := crp.NewNameSelector()
	for ci := 0; ci < sampleClients; ci++ {
		client := s.Clients[ci]
		for p := 0; p < bootstrapProbes; p++ {
			at := time.Duration(p) * 10 * time.Minute
			for _, name := range network.Names() {
				replicas, err := network.Redirect(name, client, at)
				if err != nil {
					return nil, err
				}
				ids := make([]crp.ReplicaID, len(replicas))
				flagged := make([]bool, len(replicas))
				for i, r := range replicas {
					ids[i] = s.ReplicaID(r)
					// The paper's no-probing filter rule: answers from the
					// CDN's own (owned-domain / default) servers carry no
					// positioning information.
					flagged[i] = network.IsFallback(r)
				}
				selector.RecordLookup(name, ids, flagged)
				// Bootstrap pings, the paper's probing-based rule.
				for _, r := range replicas {
					selector.RecordPing(name, s.Topo.MeasureRTTMs(client, r, at, uint64(client)))
				}
			}
		}
	}

	kept := map[string]bool{}
	for _, name := range selector.Select(crp.SelectCriteria{MaxMedianPingMs: 120}) {
		kept[name] = true
	}
	var rows []NameSelectionRow
	for _, q := range selector.Qualities() {
		rows = append(rows, NameSelectionRow{Quality: q, Kept: kept[q.Name]})
	}
	return rows, nil
}

// RenderNameSelection prints the name-selection experiment.
func RenderNameSelection(rows []NameSelectionRow) string {
	var sb strings.Builder
	sb.WriteString("§VI — adaptive CDN-name selection\n")
	fmt.Fprintf(&sb, "%-28s %8s %9s %10s %12s %6s\n",
		"name", "lookups", "replicas", "filtered", "med ping ms", "kept")
	for _, r := range rows {
		q := r.Quality
		fmt.Fprintf(&sb, "%-28s %8d %9d %9.0f%% %12.1f %6v\n",
			q.Name, q.Lookups, q.DistinctReplicas, 100*q.FilteredFraction, q.MedianPingMs, r.Kept)
	}
	return sb.String()
}

// OverheadRow compares one client behaviour's DNS load on the CDN.
type OverheadRow struct {
	Label         string
	LookupsPerDay float64
	// RelativeToWeb is the load relative to an ordinary active web client.
	RelativeToWeb float64
}

// webBrowsingHoursPerDay approximates an active web user: during browsing,
// the CDN-accelerated name is re-resolved every TTL expiry.
const webBrowsingHoursPerDay = 2.0

// OverheadTable quantifies the paper's §VI commensalism argument: with
// Akamai's 20-second TTLs, an ordinary web client re-resolves a CDN name
// hundreds of times a day, while a CRP client probing every 100 minutes
// adds a vanishing fraction of that load — and a passive CRP client adds
// none at all.
func OverheadTable(ttl time.Duration, intervals []time.Duration) []OverheadRow {
	if ttl <= 0 {
		ttl = cdn.AnswerTTL
	}
	web := webBrowsingHoursPerDay * float64(time.Hour/ttl)
	rows := []OverheadRow{
		{Label: "web client (2h browsing)", LookupsPerDay: web, RelativeToWeb: 1},
	}
	for _, iv := range intervals {
		perDay := float64(24*time.Hour) / float64(iv)
		rows = append(rows, OverheadRow{
			Label:         fmt.Sprintf("CRP, %d-min probes", int(iv.Minutes())),
			LookupsPerDay: perDay,
			RelativeToWeb: perDay / web,
		})
	}
	rows = append(rows, OverheadRow{Label: "CRP, passive monitoring", LookupsPerDay: 0, RelativeToWeb: 0})
	return rows
}

// RenderOverhead prints the overhead table.
func RenderOverhead(rows []OverheadRow) string {
	var sb strings.Builder
	sb.WriteString("§VI — DNS load per CDN name per client (commensalism)\n")
	fmt.Fprintf(&sb, "%-28s %14s %14s\n", "client behaviour", "lookups/day", "vs web client")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-28s %14.1f %13.1f%%\n", r.Label, r.LookupsPerDay, 100*r.RelativeToWeb)
	}
	return sb.String()
}
