package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"tpal/internal/stats"
)

// spec is BENCHMARK.json, the contract the driver checks.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(root string) (*spec, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// printResult prints every metric a run measured, by name, with its
// unit and the number of samples behind it.
func printResult(w io.Writer, r *result) {
	mode := "end to end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s): %d operations, %d failed", r.Workload, mode, r.Attempted, r.Failed)
	if r.StreamSHA != "" {
		fmt.Fprintf(w, ", stream sha256 %s", r.StreamSHA)
	}
	fmt.Fprintln(w)
	for _, why := range r.Failures {
		fmt.Fprintln(w, "   FAILED:", why)
	}
	show := func(defs []metricDef) {
		for _, d := range defs {
			v, ok := r.Values[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "   %-44s %14.4f %-9s", d.Name, v, d.Unit)
			if n, ok := r.Samples[d.Name]; ok {
				fmt.Fprintf(w, " n=%d", n)
			}
			if d.Exact {
				fmt.Fprint(w, " exact")
			}
			fmt.Fprintln(w)
		}
	}
	show(endToEnd)
	names := make([]string, 0, len(r.Classes))
	for c := range r.Classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		fmt.Fprintf(w, "   class %-38s %14.4f ms        n=%d (open-phase turnaround p50)\n", c, r.Classes[c].P50ms, r.Classes[c].N)
	}
	if r.Trace {
		show(perLayer)
	}
	if len(r.Layers) > 0 {
		var total float64
		for _, v := range r.Layers {
			total += v
		}
		fmt.Fprintf(w, "   where the replayed jobs' time went (self time per layer, %.1f ms in all):\n", total)
		for _, l := range append(append([]string{layerDecode}, pipelineLayers...), layerEncode) {
			if v, ok := r.Layers[l]; ok {
				fmt.Fprintf(w, "      %-22s %10.3f ms %6.2f%%\n", l, v, 100*v/total)
			}
		}
	}
}

// series collects one metric's values over the passes of a result
// file, per workload, from the untraced runs for end-to-end metrics and
// the traced runs for the rest.
func series(f *resultFile, workload, metric string, traced bool) []float64 {
	var out []float64
	for _, pass := range f.Passes {
		for _, r := range pass {
			if r.Workload == workload && r.Trace == traced {
				if v, ok := r.Values[metric]; ok {
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// printSpreads prints, per metric and workload, the minimum, the median
// and the inter-quartile spread over the passes: the noise floor the
// bounds in BENCHMARK.json are derived from. Per-layer metrics come from
// the traced runs; a layer that idles on a workload is left out.
func printSpreads(w io.Writer, s *spec, f *resultFile) {
	fmt.Fprintf(w, "\n== spread over %d passes (IQR as a share of the median; bound from BENCHMARK.json)\n", len(f.Passes))
	fmt.Fprintf(w, "   %-16s %-44s %14s %14s %9s %7s\n", "workload", "metric", "min", "median", "IQR/med", "bound")
	for _, wl := range workloadNames {
		row := func(m specMetric, traced bool) {
			xs := series(f, wl, m.Name, traced)
			if len(xs) == 0 || (traced && stats.Median(xs) == 0) {
				return
			}
			med := stats.Median(xs)
			fmt.Fprintf(w, "   %-16s %-44s %14.4f %14.4f %8.1f%%", wl, m.Name, slices.Min(xs), med, 100*stats.Ratio(iqr(xs), med))
			if !traced {
				fmt.Fprintf(w, " %6.0f%%", 100*m.Bound)
			}
			fmt.Fprintln(w)
		}
		for _, m := range s.EndToEnd {
			row(m, false)
		}
		for _, m := range s.PerLayer {
			row(m, true)
		}
	}
}

// compareMain applies the bounds of BENCHMARK.json to two result
// files: one row per end-to-end metric and workload, every ratio with
// its base, then the exact counts that differ.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	s, err := readSpec(root)
	if err != nil {
		return fail(err)
	}
	a, err := readResults(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := readResults(args[1])
	if err != nil {
		return fail(err)
	}
	return compare(os.Stdout, s, a, b)
}

func readResults(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict classifies B against A for one metric: worse is the signed
// relative change in the metric's bad direction.
func verdictOf(a, b []float64, better string, bound float64) (string, float64) {
	ma, mb := stats.Median(a), stats.Median(b)
	worse := (mb - ma) / ma
	if better == "higher" {
		worse = -worse
	}
	spread := stats.Ratio(iqr(a), ma)
	if s := stats.Ratio(iqr(b), mb); s > spread {
		spread = s
	}
	switch {
	case spread > bound:
		return "unresolved", worse
	case worse > bound:
		return "regressed", worse
	case worse < -bound:
		return "improved", worse
	}
	return "unchanged", worse
}

func compare(w io.Writer, s *spec, a, b *resultFile) int {
	ha, _ := json.Marshal(a.Header)
	hb, _ := json.Marshal(b.Header)
	fmt.Fprintf(w, "A: %s\nB: %s\n", ha, hb)
	if a.Header.Seed != b.Header.Seed || a.Header.Seconds != b.Header.Seconds || a.Header.NProc != b.Header.NProc {
		fmt.Fprintln(w, "WARNING: seed, run length or core count differ; the rows below compare unlike runs")
	}
	fmt.Fprintf(w, "\n   %-16s %-12s %12s %12s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "B/A", "bound", "verdict")
	regressed := 0
	for _, wl := range workloadNames {
		for _, m := range s.EndToEnd {
			xa, xb := series(a, wl, m.Name, false), series(b, wl, m.Name, false)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v, _ := verdictOf(xa, xb, m.Better, m.Bound)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "   %-16s %-12s %12.4f %12.4f %8.3f %6.0f%%  %s (%s better, base A = %.4f %s, n=%d/%d)\n",
				wl, m.Name, stats.Median(xa), stats.Median(xb), stats.Ratio(stats.Median(xb), stats.Median(xa)), 100*m.Bound, v, m.Better, stats.Median(xa), m.Unit, len(xa), len(xb))
		}
	}
	differ := 0
	for _, wl := range workloadNames {
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			xa, xb := series(a, wl, d.Name, true), series(b, wl, d.Name, true)
			all := append(append([]float64(nil), xa...), xb...)
			for _, x := range all {
				if x != all[0] {
					fmt.Fprintf(w, "   exact count %s on %s differs: A %v, B %v\n", d.Name, wl, xa, xb)
					differ++
					break
				}
			}
		}
	}
	fmt.Fprintf(w, "\n%d regressed rows, %d exact counts differ\n", regressed, differ)
	if regressed > 0 || differ > 0 {
		return 1
	}
	return 0
}
