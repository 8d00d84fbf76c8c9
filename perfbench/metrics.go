package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p90 needs at least 100 samples, a p50 at least 20.
const minTail = 10

// percentile returns the p-th percentile of xs (0 < p < 100), linearly
// interpolated between closest ranks. It refuses when fewer than minTail
// samples lie beyond it, because such a tail is one or two outliers and
// does not repeat from run to run.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	if beyond := int(math.Floor(float64(len(xs))*(100-p)/100 + 1e-9)); beyond < minTail {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, len(xs), beyond, minTail)
	}
	return rank(xs, p/100), nil
}

// groupMedian is the mean over groups of each group's median. The wire
// workloads' latencies come from one client population per codec and fall
// in four separate bands: their pooled median sits on the edge between two
// bands, where a few slow samples move it by a band's width, while each
// group's median stays inside its band. Each group needs the samples
// percentile asks of a median.
func groupMedian(groups map[string][]float64) (float64, error) {
	if len(groups) == 0 {
		return 0, fmt.Errorf("no samples")
	}
	sum := 0.0
	for _, k := range sortedKeys(groups) {
		m, err := percentile(groups[k], 50)
		if err != nil {
			return 0, fmt.Errorf("group %q: %w", k, err)
		}
		sum += m
	}
	return sum / float64(len(groups)), nil
}

// pooled returns every group's samples in one slice, groups in key order.
func pooled(groups map[string][]float64) []float64 {
	var all []float64
	for _, k := range sortedKeys(groups) {
		all = append(all, groups[k]...)
	}
	return all
}

func sortedKeys(groups map[string][]float64) []string {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median returns the middle of xs with no tail requirement; it reports
// statistics over a handful of repeats, such as set-up times.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return rank(xs, 0.5)
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// rank returns the q-quantile of xs (0 ≤ q ≤ 1), interpolated linearly.
func rank(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// selfTime is a span's duration minus the part its child spans cover.
// Children are [start, end) intervals that may overlap one another; the
// covered part counts each instant once, clipped to the parent.
func selfTime(start, end float64, children [][2]float64) float64 {
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		lo, hi := math.Max(c[0], start), math.Min(c[1], end)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, reach := 0.0, start
	for _, c := range iv {
		if c[1] <= reach {
			continue
		}
		covered += c[1] - math.Max(c[0], reach)
		reach = c[1]
	}
	return end - start - covered
}

// attribution accumulates round spans and the part of them no timed call
// covers.
type attribution struct{ wall, self float64 }

// add records one round [start, end) and the timed calls inside it.
func (a *attribution) add(start, end float64, calls [][2]float64) {
	a.wall += end - start
	a.self += selfTime(start, end, calls)
}

// unattributedFrac is the share of round time outside every timed call.
func (a attribution) unattributedFrac() float64 {
	if a.wall <= 0 {
		return math.NaN()
	}
	return a.self / a.wall
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec names a metric and its unit.
type spec struct{ name, unit string }

// codecs are the wire workloads' client codecs, in client-ID order.
var codecs = []string{"raw", "dense8", "topk4", "topk4-delta"}

// cascadeModules is the module count of cascade-fat's cascade: VGG16S
// width 4 partitioned at Rmin = 0.2 of the full training memory.
const cascadeModules = 8

// endToEndSchema lists every metric an untraced run prints.
func endToEndSchema() []spec {
	return []spec{
		{"setup_s", "s"},
		{"samples_per_s", "1/s"},
		{"updates_per_s", "1/s"},
		{"round_ms_p50", "ms"},
		{"pull_ms_p50", "ms"},
		{"pull_ms_p90", "ms"},
		{"push_ms_p50", "ms"},
		{"push_ms_p90", "ms"},
		{"bytes_per_round", "bytes"},
		{"peak_rss_mb", "MB"},
		{"final_loss", "nats"},
	}
}

// layerGroups lists every metric a traced run prints, grouped by the
// layer that produces it. A workload measures the groups on its path; the
// others read 0 (see README.md).
func layerGroups() map[string][]spec {
	mod := func(base, unit string) []spec {
		var s []spec
		for k := 0; k < cascadeModules; k++ {
			s = append(s, spec{fmt.Sprintf("%s.m%d", base, k), unit})
		}
		return s
	}
	perCodec := func(base, unit string) []spec {
		var s []spec
		for _, c := range codecs {
			s = append(s, spec{base + "." + c, unit})
		}
		return s
	}
	g := map[string][]spec{
		"kernels": {
			{"tensor.gemm_gflops", "GFLOP/s"},
			{"nn.fwd_ms", "ms"},
			{"nn.bwd_ms", "ms"},
			{"nn.sgd_step_ms", "ms"},
			{"attack.pgd_step_ms", "ms"},
			{"fl.aggregate_ms", "ms"},
			{"quant.encode_ms.dense8", "ms"},
			{"quant.encode_ms.dense4", "ms"},
			{"quant.encode_ms.topk4", "ms"},
			{"quant.decode_ms.dense8", "ms"},
			{"quant.decode_ms.dense4", "ms"},
			{"quant.decode_ms.topk4", "ms"},
			{"quant.topk_ms", "ms"},
		},
		"cascade": append(append(mod("cascade.adv_step_ms", "ms"),
			mod("cascade.heap_peak_mb", "MB")...), mod("cascade.memreq_mb", "MB")...),
		"core": append(mod("core.stage_round_ms", "ms"), spec{"core.eval_s", "s"}),
		"fldist": append(append(perCodec("fldist.client.pull_ms", "ms"),
			perCodec("fldist.client.push_ms", "ms")...),
			spec{"fldist.client.train_ms", "ms"},
			spec{"fldist.server.admit_us_p50", "us"},
			spec{"fldist.server.admit_us_p99", "us"},
			spec{"fldist.server.serve_us_p50", "us"},
			spec{"fldist.server.serve_us_p99", "us"},
			spec{"fldist.server.served_builds_per_round", "count"},
			spec{"fldist.server.bytes_in_per_round", "bytes"},
			spec{"fldist.server.bytes_out_per_round", "bytes"},
			spec{"fldist.server.bytes_in_sparse_per_round", "bytes"},
			spec{"fldist.server.bytes_out_delta_per_round", "bytes"},
			spec{"fldist.server.bytes_out_cold_per_round", "bytes"},
			spec{"fldist.wal.bytes_per_round", "bytes"},
			spec{"fldist.wal.records_per_round", "count"},
		),
		"attribution": {
			{"unattributed_frac", "ratio"},
			{"trace_overhead_frac", "ratio"},
		},
	}
	return g
}

// layerSchema flattens layerGroups in a fixed order.
func layerSchema() []spec {
	g := layerGroups()
	var out []spec
	for _, k := range []string{"kernels", "cascade", "core", "fldist", "attribution"} {
		out = append(out, g[k]...)
	}
	return out
}

// fill builds the printed metric map from measured values: every schema
// name must be present in vals, except those in groups the workload does
// not measure, which read 0. A value outside the schema is a bug.
func fill(schema []spec, vals map[string]float64, zero map[string]bool) (map[string]metric, error) {
	known := map[string]bool{}
	out := map[string]metric{}
	for _, s := range schema {
		known[s.name] = true
		v, ok := vals[s.name]
		switch {
		case ok:
		case zero[s.name]:
			v = 0
		default:
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	for name := range vals {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not in the schema", name)
		}
	}
	return out, nil
}
