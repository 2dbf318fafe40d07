// Command tastistat renders a one-screen operator view of a running
// tastiserve: it polls GET /admin/status and GET /metrics and condenses
// build identity, index health, query spend, ingest lag, and tracing state
// into a few fixed lines — the numbers an operator wants before deciding
// whether to read traces, scrape dashboards, or go back to sleep.
//
// Usage:
//
//	tastistat -addr http://localhost:8080           # one snapshot
//	tastistat -addr http://localhost:8080 -watch 2s # repaint every 2s
//
// The view degrades gracefully: while the server is still building its
// index the status line says so and the index/query sections are omitted;
// sections for disabled subsystems (no WAL, tracing off) are likewise
// dropped rather than rendered as zeros.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/tasti"
)

// statusDoc mirrors the GET /admin/status payload.
type statusDoc struct {
	Status          string             `json:"status"`
	Error           string             `json:"error"`
	Dataset         string             `json:"dataset"`
	Version         string             `json:"version"`
	Go              string             `json:"go"`
	Kernel          string             `json:"kernel"`
	UptimeSeconds   float64            `json:"uptime_seconds"`
	TraceSampleRate float64            `json:"trace_sample_rate"`
	TracesRetained  int                `json:"traces_retained"`
	TraceRingCap    int                `json:"trace_ring_cap"`
	BreakerState    string             `json:"breaker_state"`
	Ledger          tasti.LedgerTotals `json:"ledger"`
	LabelStore      *labelStoreDoc     `json:"label_store"`
	ProxyColumns    *proxyColumnsDoc   `json:"proxy_columns"`
	Health          *healthDoc         `json:"health"`
}

type labelStoreDoc struct {
	Entries         int                     `json:"entries"`
	Dirty           int64                   `json:"dirty"`
	GlobalBudget    int64                   `json:"global_budget"`
	TenantBudget    int64                   `json:"tenant_budget"`
	GlobalRemaining int64                   `json:"global_remaining"`
	Tenants         map[string]tenantBudget `json:"tenants"`
}

type proxyColumnsDoc struct {
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	Generation uint64 `json:"generation"`
	Hits       int64  `json:"hits"`
	Misses     int64  `json:"misses"`
}

type tenantBudget struct {
	Spent     int64 `json:"spent"`
	Remaining int64 `json:"remaining"`
}

type healthDoc struct {
	Records   int        `json:"records"`
	Reps      int        `json:"representatives"`
	Shards    int        `json:"shards"`
	RadiusP50 float64    `json:"radius_p50"`
	RadiusP90 float64    `json:"radius_p90"`
	RadiusP99 float64    `json:"radius_p99"`
	Memory    *memoryDoc `json:"memory"`
	Drift     *driftDoc  `json:"drift"`
	WAL       *walLagDoc `json:"wal"`
}

type memoryDoc struct {
	FloatBytes int64   `json:"embedding_float_bytes"`
	QuantBytes int64   `json:"embedding_quant_bytes"`
	RerankRate float64 `json:"quant_rerank_rate"`
}

type driftDoc struct {
	Ratio     float64 `json:"ratio"`
	Baseline  float64 `json:"baseline"`
	Triggered bool    `json:"triggered"`
}

type walLagDoc struct {
	Segments   int   `json:"segments"`
	Bytes      int64 `json:"bytes"`
	LagRecords int   `json:"lag_records"`
	QueueDepth int   `json:"queue_depth"`
}

func main() {
	addr := flag.String("addr", "http://localhost:8080", "tastiserve base URL")
	watch := flag.Duration("watch", 0, "repaint at this interval (0 renders once and exits)")
	flag.Parse()

	for {
		out, err := snapshot(*addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tastistat: %v\n", err)
			if *watch == 0 {
				os.Exit(1)
			}
		} else {
			if *watch > 0 {
				fmt.Print("\033[H\033[2J") // home + clear: repaint in place
			}
			fmt.Print(out)
		}
		if *watch == 0 {
			return
		}
		time.Sleep(*watch)
	}
}

// snapshot fetches both endpoints and renders the view.
func snapshot(addr string) (string, error) {
	var st statusDoc
	resp, err := http.Get(addr + "/admin/status")
	if err != nil {
		return "", err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return "", fmt.Errorf("decoding /admin/status: %w", err)
	}
	resp, err = http.Get(addr + "/metrics")
	if err != nil {
		return "", err
	}
	fams, err := tasti.ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", fmt.Errorf("parsing /metrics: %w", err)
	}
	return render(&st, fams), nil
}

// render condenses one poll into the fixed operator view. Pure — unit
// tests feed it fabricated inputs.
func render(st *statusDoc, fams map[string]*tasti.PromFamily) string {
	var b strings.Builder
	up := time.Duration(st.UptimeSeconds * float64(time.Second)).Truncate(time.Second)
	fmt.Fprintf(&b, "tastiserve %s · %s · v%s %s · kernel %s · up %s\n",
		st.Dataset, st.Status, st.Version, st.Go, st.Kernel, up)
	if st.Error != "" {
		fmt.Fprintf(&b, "error   %s\n", st.Error)
	}
	if h := st.Health; h != nil {
		fmt.Fprintf(&b, "index   %d records · %d reps · %d shard(s) · radius p50/p90/p99 %.3g/%.3g/%.3g\n",
			h.Records, h.Reps, h.Shards, h.RadiusP50, h.RadiusP90, h.RadiusP99)
		if m := h.Memory; m != nil {
			fmt.Fprintf(&b, "memory  embeddings %s float + %s quant codes · rerank rate %.1f%%\n",
				sizeOf(m.FloatBytes), sizeOf(m.QuantBytes), m.RerankRate*100)
		}
	}
	if st.Status == "ready" {
		runs := seriesByLabel(fams, "tasti_query_runs_total", "type")
		fmt.Fprintf(&b, "queries agg %.0f sel %.0f lim %.0f · labels %d (hits %d) · 5xx %.0f · in-flight %.0f · breaker %s\n",
			runs["aggregate"], runs["select"], runs["limit"],
			st.Ledger.Labels, st.Ledger.Hits,
			serverErrors(fams),
			sumFamily(fams, "tasti_http_in_flight"),
			st.BreakerState)
		fmt.Fprintf(&b, "ledger  %d requests · %d records touched · wall %s\n",
			st.Ledger.Requests, st.Ledger.Records,
			time.Duration(st.Ledger.WallNS).Truncate(time.Microsecond))
	}
	if line := labelLine(st.LabelStore, fams); line != "" {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	if pc := st.ProxyColumns; pc != nil {
		fmt.Fprintf(&b, "columns %d cached · %s", pc.Entries, sizeOf(pc.Bytes))
		if n := pc.Hits + pc.Misses; n > 0 {
			fmt.Fprintf(&b, " · hit rate %.1f%% (%d/%d)", 100*float64(pc.Hits)/float64(n), pc.Hits, n)
		}
		fmt.Fprintf(&b, " · generation %d\n", pc.Generation)
	}
	if h := st.Health; h != nil && h.WAL != nil {
		fmt.Fprintf(&b, "ingest  acked %.0f · queue %d · wal lag %d rec / %d seg / %s",
			sumFamily(fams, "tasti_ingest_acked_total"),
			h.WAL.QueueDepth, h.WAL.LagRecords, h.WAL.Segments, sizeOf(h.WAL.Bytes))
		if h.Drift != nil {
			fmt.Fprintf(&b, " · drift %.2fx of %.3g", h.Drift.Ratio, h.Drift.Baseline)
			if h.Drift.Triggered {
				b.WriteString(" TRIGGERED")
			}
		}
		b.WriteByte('\n')
	}
	if st.TraceSampleRate > 0 {
		fmt.Fprintf(&b, "traces  %d/%d retained · sampling %.1f%%\n",
			st.TracesRetained, st.TraceRingCap, st.TraceSampleRate*100)
	}
	return b.String()
}

// labelLine renders the cost-control line: label-store residency and hit
// rate, coalesced oracle calls, and the remaining budget per scope. Empty
// when the store is idle and no budget is configured — a server without a
// cost-control plane doesn't earn a line of zeros.
func labelLine(ls *labelStoreDoc, fams map[string]*tasti.PromFamily) string {
	if ls == nil {
		return ""
	}
	hits := sumFamily(fams, "tasti_labelstore_hits_total")
	misses := sumFamily(fams, "tasti_labelstore_misses_total")
	if ls.Entries == 0 && hits+misses == 0 && ls.GlobalBudget <= 0 && ls.TenantBudget <= 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "labels  %d stored", ls.Entries)
	if ls.Dirty > 0 {
		fmt.Fprintf(&b, " (%d dirty)", ls.Dirty)
	}
	if hits+misses > 0 {
		fmt.Fprintf(&b, " · hit rate %.1f%% (%.0f/%.0f)", 100*hits/(hits+misses), hits, hits+misses)
	}
	if c := sumFamily(fams, "tasti_labelstore_coalesced_total"); c > 0 {
		fmt.Fprintf(&b, " · coalesced %.0f", c)
	}
	if ls.GlobalBudget > 0 {
		fmt.Fprintf(&b, " · budget %d/%d left", ls.GlobalRemaining, ls.GlobalBudget)
	}
	if ls.TenantBudget > 0 && len(ls.Tenants) > 0 {
		names := make([]string, 0, len(ls.Tenants))
		for name := range ls.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, name := range names {
			parts = append(parts, fmt.Sprintf("%s %d/%d", name, ls.Tenants[name].Remaining, ls.TenantBudget))
		}
		fmt.Fprintf(&b, " · tenants %s", strings.Join(parts, " "))
	}
	return b.String()
}

// sumFamily sums every sample of a family (all label sets), skipping the
// _bucket/_sum rows of histograms so a histogram family sums to its count.
func sumFamily(fams map[string]*tasti.PromFamily, name string) float64 {
	fam := fams[name]
	if fam == nil {
		return 0
	}
	var total float64
	for _, s := range fam.Samples {
		if strings.HasSuffix(s.Name, "_bucket") || strings.HasSuffix(s.Name, "_sum") {
			continue
		}
		total += s.Value
	}
	return total
}

// serverErrors sums tasti_http_requests_total over its 5xx status codes.
func serverErrors(fams map[string]*tasti.PromFamily) float64 {
	total := 0.0
	for code, v := range seriesByLabel(fams, "tasti_http_requests_total", "code") {
		if strings.HasPrefix(code, "5") {
			total += v
		}
	}
	return total
}

// seriesByLabel indexes a family's samples by one label's value.
func seriesByLabel(fams map[string]*tasti.PromFamily, name, label string) map[string]float64 {
	out := make(map[string]float64)
	fam := fams[name]
	if fam == nil {
		return out
	}
	for _, s := range fam.Samples {
		if v, ok := s.Labels[label]; ok {
			out[v] += s.Value
		}
	}
	return out
}

// sizeOf renders bytes with a binary unit, one decimal.
func sizeOf(n int64) string {
	units := []string{"B", "KiB", "MiB", "GiB", "TiB"}
	v := float64(n)
	i := 0
	for v >= 1024 && i < len(units)-1 {
		v /= 1024
		i++
	}
	if i == 0 {
		return fmt.Sprintf("%.0fB", v)
	}
	return fmt.Sprintf("%.1f%s", v, units[i])
}
