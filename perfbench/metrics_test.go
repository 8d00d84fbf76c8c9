package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{99, 90, false}, {100, 90, true},
		{19, 50, false}, {20, 50, true},
		{999, 99, false}, {1000, 99, true},
	} {
		_, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%v of %d samples: err = %v, want ok = %v", c.p, c.n, err, c.ok)
		}
	}
	if _, err := percentile(seq(100), 100); err == nil {
		t.Error("p100 accepted")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := seq(100)
	// Shuffled input must give the same answer as sorted input.
	for i := range xs {
		j := (i * 37) % len(xs)
		xs[i], xs[j] = xs[j], xs[i]
	}
	for p, want := range map[float64]float64{50: 50.5, 90: 90.1} {
		got, err := percentile(xs, p)
		if err != nil || math.Abs(got-want) > 1e-9 {
			t.Errorf("p%v = %v, %v; want %v", p, got, err, want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestGroupMedianAveragesGroupMedians(t *testing.T) {
	fast, slow := seq(20), seq(20)
	for i := range slow {
		slow[i] += 100
	}
	// The pooled median falls in the gap between the groups (20.5 → 101);
	// the group medians are 10.5 and 110.5.
	got, err := groupMedian(map[string][]float64{"fast": fast, "slow": slow})
	if err != nil || math.Abs(got-60.5) > 1e-9 {
		t.Errorf("groupMedian = %v, %v; want 60.5", got, err)
	}
	if _, err := groupMedian(map[string][]float64{"fast": fast, "few": seq(19)}); err == nil {
		t.Error("a group of 19 samples accepted for a median")
	}
	if _, err := groupMedian(nil); err == nil {
		t.Error("no groups accepted")
	}
	if got := pooled(map[string][]float64{"b": {3}, "a": {1, 2}}); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("pooled = %v, want [1 2 3]", got)
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		children [][2]float64
		want     float64
	}{
		{"no children", nil, 10},
		{"disjoint", [][2]float64{{1, 3}, {5, 6}}, 7},
		{"overlapping counted once", [][2]float64{{1, 3}, {2, 5}}, 6},
		{"nested", [][2]float64{{1, 9}, {2, 3}}, 2},
		{"clipped to the parent", [][2]float64{{-4, 1}, {8, 12}}, 7},
		{"outside the parent", [][2]float64{{11, 12}}, 10},
	} {
		if got := selfTime(0, 10, c.children); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestUnattributedFrac(t *testing.T) {
	var a attribution
	if got := a.unattributedFrac(); !math.IsNaN(got) {
		t.Errorf("no rounds: %v, want NaN", got)
	}
	a.add(0, 10, [][2]float64{{0, 4}, {4, 9}})                // 1 of 10 unattributed
	a.add(20, 30, [][2]float64{{20, 25}, {22, 24}, {26, 30}}) // 1 of 10
	if got := a.unattributedFrac(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("unattributedFrac = %v, want 0.1", got)
	}
}

func TestFillRejectsMissingAndUnknown(t *testing.T) {
	schema := []spec{{"a", "ms"}, {"b", "ms"}}
	if _, err := fill(schema, map[string]float64{"a": 1}, nil); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := fill(schema, map[string]float64{"a": 1, "b": 2, "c": 3}, nil); err == nil {
		t.Error("unknown metric accepted")
	}
	if _, err := fill(schema, map[string]float64{"a": math.NaN(), "b": 2}, nil); err == nil {
		t.Error("NaN accepted")
	}
	got, err := fill(schema, map[string]float64{"a": 1}, map[string]bool{"b": true})
	if err != nil || got["b"].Value != 0 || got["a"].Unit != "ms" {
		t.Errorf("fill = %v, %v", got, err)
	}
}

// metricName is BENCHMARK.json's name rule.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSchemaMatchesBenchmarkJSON pins every metric the benchmark prints to
// its declaration in BENCHMARK.json, name and unit.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, schema []spec, declared []struct{ Name, Unit string }) {
		want := map[string]string{}
		for _, d := range declared {
			want[d.Name] = d.Unit
		}
		seen := map[string]bool{}
		for _, s := range schema {
			if !metricName.MatchString(s.name) {
				t.Errorf("%s metric %q is not a valid name", kind, s.name)
			}
			if seen[s.name] {
				t.Errorf("%s metric %q printed twice", kind, s.name)
			}
			seen[s.name] = true
			if u, ok := want[s.name]; !ok || u != s.unit {
				t.Errorf("%s metric %q (%s) declared as %q, %v", kind, s.name, s.unit, u, ok)
			}
		}
		if len(seen) != len(want) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", kind, len(seen), len(want))
		}
	}
	check("end_to_end", endToEndSchema(), bj.EndToEnd)
	check("per_layer", layerSchema(), bj.PerLayer)
	for _, w := range bj.Workload {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(bj.Workload) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark implements %d", len(bj.Workload), len(workloads))
	}
}

func TestRefusesGOMAXPROCSAboveCPUs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	if err := run("wire-fat", 1, 1, 0); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Fatalf("run with GOMAXPROCS above the CPU count: %v", err)
	}
}

var heapSink []byte

// TestHeapPeakIsLiveNotAllocated checks that heapPeakMB reports the live
// heap at its largest, not the bytes allocated: 64 MB allocated 1 MB at a
// time, each dropped before the next, must read far below 64 MB.
func TestHeapPeakIsLiveNotAllocated(t *testing.T) {
	live := heapPeakMB(func() {
		heapSink = make([]byte, 16<<20)
		time.Sleep(10 * time.Millisecond)
	})
	churn := heapPeakMB(func() {
		for i := 0; i < 64; i++ {
			heapSink = make([]byte, 1<<20)
		}
	})
	heapSink = nil
	t.Logf("held 16 MB: %.1f MB; churned 64 × 1 MB: %.1f MB", live, churn)
	if live < 15 {
		t.Errorf("16 MB held: peak %.1f MB", live)
	}
	if churn > 16 {
		t.Errorf("64 MB allocated, 1 MB live at a time: peak %.1f MB", churn)
	}
}
