// Command perfbench is the repository benchmark: three workloads that drive
// the FedProphet reproduction from one goroutine and time calls into its
// public functions.
//
//	bash perfbench/run.sh --workload cascade-fat --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics.
// The line before it records the run's metadata. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// bench is one run's configuration and everything it measured.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool

	// End-to-end samples, pooled over passes.
	setupS   []float64            // per set-up: start → end of the warm-up round
	roundMS  []float64            // per measured round
	pullMS   map[string][]float64 // per pull, by client population
	pushMS   map[string][]float64 // per push, by client population
	samples  float64              // training samples in measured rounds
	updates  float64              // admitted updates in measured rounds
	measured float64              // seconds of measured rounds
	bytesPR  float64              // first pass: bytes per measured round
	loss     float64              // first pass: mean local loss of its measured rounds

	// Correctness: every check is an attempted operation.
	attempted, failed int

	// Per-layer values, filled in traced runs.
	layers map[string]float64
	// zero names the per-layer metrics not on this workload's path.
	zero map[string]bool
}

// check counts one attempted operation, and a failure when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// notOnPath marks whole layer groups as absent from this workload.
func (b *bench) notOnPath(groups ...string) {
	g := layerGroups()
	for _, name := range groups {
		for _, s := range g[name] {
			b.zero[s.name] = true
		}
	}
}

// setupReps is how many set-ups a run times besides those of its measured
// passes: setup_s is the median of them all.
const setupReps = 5

// runPasses sets up setupReps times without measuring (set-up and warm-up
// round only), then runs whole passes (set-up, warm-up round, measured
// rounds) while the next one is expected to end within the measuring
// budget. Traced runs make at least two passes, one traced and one not.
// Every pass of a run builds the same inputs, so passes repeat one
// another's work exactly.
func (b *bench) runPasses(pass func(i int, setupOnly bool) error) error {
	for i := 0; i < setupReps; i++ {
		if err := pass(i, true); err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
	}
	minPasses := 1
	if b.trace {
		minPasses = 2
	}
	start := time.Now()
	var last time.Duration
	for i := 0; i < minPasses || time.Since(start)+last <= b.seconds; i++ {
		t := time.Now()
		if err := pass(i, false); err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		last = time.Since(t)
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d took %.2fs (set-up %.3fs)\n",
			b.workload, i, last.Seconds(), b.setupS[len(b.setupS)-1])
	}
	return nil
}

// passOutcome records the first pass's bytes per round and mean local
// loss, and checks that every later pass, on the same inputs, repeats them
// exactly.
func (b *bench) passOutcome(i int, bytesPerRound, loss float64) {
	if i == 0 {
		b.bytesPR, b.loss = bytesPerRound, loss
		return
	}
	b.check(bytesPerRound == b.bytesPR && loss == b.loss,
		"pass %d: %v bytes per round and loss %v, pass 0 had %v and %v", i, bytesPerRound, loss, b.bytesPR, b.loss)
}

// endToEnd reduces the pooled samples to the end-to-end metrics.
func (b *bench) endToEnd() (map[string]float64, error) {
	v := map[string]float64{
		"setup_s":         median(b.setupS),
		"samples_per_s":   b.samples / b.measured,
		"updates_per_s":   b.updates / b.measured,
		"bytes_per_round": b.bytesPR,
		"peak_rss_mb":     peakRSSMB(),
		"final_loss":      b.loss,
	}
	pct := func(xs []float64, p float64) func() (float64, error) {
		return func() (float64, error) { return percentile(xs, p) }
	}
	for _, p := range []struct {
		name string
		stat func() (float64, error)
	}{
		{"round_ms_p50", pct(b.roundMS, 50)},
		{"pull_ms_p50", func() (float64, error) { return groupMedian(b.pullMS) }},
		{"pull_ms_p90", pct(pooled(b.pullMS), 90)},
		{"push_ms_p50", func() (float64, error) { return groupMedian(b.pushMS) }},
		{"push_ms_p90", pct(pooled(b.pushMS), 90)},
	} {
		x, err := p.stat()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		v[p.name] = x
	}
	for name, x := range v {
		if !(x > 0) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("%s = %v, want a positive finite number", name, x)
		}
	}
	return v, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var workloads = map[string]func(*bench) error{
	"cascade-fat": runCascadeFat,
	"wire-fat":    runWireFat,
	"wire-churn":  runWireChurn,
}

// meta is printed on the line before the result.
type meta struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func main() {
	var (
		workload = flag.String("workload", "", "cascade-fat, wire-fat or wire-churn")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measuring budget in seconds")
		trace    = flag.Int("trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	if n, max := runtime.GOMAXPROCS(0), runtime.NumCPU(); n > max {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available; unset it", n, max)
	}
	m := meta{
		Workload: workload, Seed: seed, Trace: trace == 1, Seconds: seconds,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	b := &bench{
		workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second,
		trace: trace == 1, layers: map[string]float64{}, zero: map[string]bool{},
		pullMS: map[string][]float64{}, pushMS: map[string][]float64{},
	}
	if err := fn(b); err != nil {
		return err
	}
	var metrics map[string]metric
	var err error
	if b.trace {
		metrics, err = fill(layerSchema(), b.layers, b.zero)
	} else {
		var v map[string]float64
		if v, err = b.endToEnd(); err == nil {
			metrics, err = fill(endToEndSchema(), v, nil)
		}
	}
	if err != nil {
		return err
	}
	if b.attempted < 1 {
		return errors.New("no operation was checked")
	}
	mj, _ := json.Marshal(m)
	fmt.Println(string(mj))
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// commit reads the checked-out commit from .git, walking up from the
// working directory; outside a git checkout it is "unknown".
func commit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		git := filepath.Join(dir, ".git")
		if head, err := os.ReadFile(filepath.Join(git, "HEAD")); err == nil {
			ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
			if !isRef {
				return ref
			}
			if id, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
				return strings.TrimSpace(string(id))
			}
			return packedRef(git, ref)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

// packedRef looks ref up in .git/packed-refs.
func packedRef(git, ref string) string {
	f, err := os.Open(filepath.Join(git, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if id, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
