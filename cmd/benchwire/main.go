// Command benchwire measures the compressed delta wire protocol end to end:
// it runs the real HTTP parameter server and a small client fleet through
// synchronous federated rounds at each codec setting, reads the server's
// /stats byte counters, and records bytes-per-round and wall-clock round
// latency to a JSON baseline.
//
//	go run ./cmd/benchwire -out BENCH_wire.json
//
// Every setting runs one unmeasured warmup round first, so the recorded
// bytes are the steady state: a delta-downlink fleet pays its one-time cold
// pull in warmup and the measured rounds show the per-round catch-up cost.
// The headline figures are reduction_vs_raw (dense quantization) and the
// per-direction uplink/downlink_reduction_vs_dense of the sparse and
// delta-downlink rows: how much the top-k diet compounds on top of dense
// quantization at the same bit width.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"fedprophet/internal/data"
	"fedprophet/internal/fl"
	"fedprophet/internal/fldist"
	"fedprophet/internal/nn"
)

// runMeta records the machine and toolchain the numbers were measured on,
// mirroring BENCH_serve.json so wire reruns stay byte-comparable. The
// timestamp is passed in (-timestamp, typically `date -u` from make) so a
// re-run with identical inputs produces identical bytes by default.
type runMeta struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Timestamp  string `json:"timestamp,omitempty"`
}

// result is one codec setting's measurement. The *_reduction_vs_dense
// fields compare a sparse or delta-downlink row against the dense row at
// the same bit width, per direction — the "additional ≥5×" the sparse
// forms are for.
type result struct {
	Bits            string  `json:"bits"` // "raw", "8", "4+topk", "4+topk+delta", ...
	Chunk           int     `json:"chunk,omitempty"`
	TopK            int     `json:"topk,omitempty"`
	DeltaDownlink   bool    `json:"delta_downlink,omitempty"`
	BytesPerRound   int64   `json:"bytes_per_round"`
	BytesIn         int64   `json:"bytes_in"`
	BytesOut        int64   `json:"bytes_out"`
	BytesInSparse   int64   `json:"bytes_in_sparse,omitempty"`
	BytesOutDelta   int64   `json:"bytes_out_delta,omitempty"`
	BytesOutCold    int64   `json:"bytes_out_cold,omitempty"`
	RoundLatencyMS  float64 `json:"round_latency_ms"`
	ReductionVsRaw  float64 `json:"reduction_vs_raw"`
	UplinkRedDense  float64 `json:"uplink_reduction_vs_dense,omitempty"`
	DownlinkRedDens float64 `json:"downlink_reduction_vs_dense,omitempty"`
	RoundsCompleted int     `json:"rounds_completed"`
}

type report struct {
	Meta          runMeta  `json:"meta"`
	Model         string   `json:"model"`
	Params        int      `json:"params"`
	BNStats       int      `json:"bn_stats"`
	Clients       int      `json:"clients"`
	Rounds        int      `json:"rounds"`
	Chunk         int      `json:"chunk"`
	TopK          int      `json:"topk"`
	GeneratedKind string   `json:"workload"`
	Results       []result `json:"results"`
}

// setting is one benchmark row's codec configuration.
type setting struct {
	label     string
	comp      *fldist.Compression
	denseBits int // dense row at the same bits, for the per-direction comparison
}

func main() {
	var (
		out       = flag.String("out", "BENCH_wire.json", "output JSON path")
		clients   = flag.Int("clients", 3, "client fleet size (= aggregation quorum)")
		rounds    = flag.Int("rounds", 3, "measured synchronous rounds per setting (after 1 warmup round)")
		chunk     = flag.Int("chunk", 0, "values per quantization scale (0 = default 256)")
		topk      = flag.Int("topk", 0, "top-k coordinates per sparse uplink frame (0 = params/64)")
		seed      = flag.Int64("seed", 1, "random seed")
		timestamp = flag.String("timestamp", "", "run timestamp recorded in the output metadata (e.g. `date -u +%Y-%m-%dT%H:%M:%SZ`)")
	)
	flag.Parse()
	if *clients < 1 || *rounds < 1 {
		log.Fatalf("benchwire: -clients (%d) and -rounds (%d) must be ≥ 1", *clients, *rounds)
	}

	build := func() *nn.Model {
		return nn.CNN3([]int{3, 16, 16}, 10, 4, rand.New(rand.NewSource(*seed)))
	}
	train, _ := data.Generate(data.CIFAR10SConfig(40, 10, *seed))
	subs := data.PartitionNonIID(train, data.DefaultPartition(*clients, *seed))
	m := build()
	k := *topk
	if k == 0 {
		k = nn.NumParams(m) / 64
	}

	rep := report{
		Meta: runMeta{
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			GoVersion:  runtime.Version(),
			Timestamp:  *timestamp,
		},
		Model:         m.Label,
		Params:        nn.NumParams(m),
		BNStats:       len(nn.ExportBNStats(m)),
		Clients:       *clients,
		Rounds:        *rounds,
		Chunk:         *chunk,
		TopK:          k,
		GeneratedKind: "CIFAR10-S 40/class",
	}
	log.Printf("benchwire: %s, %d params + %d bn stats, %d clients, %d rounds/setting, topk=%d",
		rep.Model, rep.Params, rep.BNStats, *clients, *rounds, k)

	settings := []setting{
		{label: "raw"},
		{label: "8", comp: &fldist.Compression{Bits: 8, Chunk: *chunk}},
		{label: "4", comp: &fldist.Compression{Bits: 4, Chunk: *chunk}},
		{label: "2", comp: &fldist.Compression{Bits: 2, Chunk: *chunk}},
		{label: "8+topk", comp: &fldist.Compression{Bits: 8, Chunk: *chunk, TopK: k}, denseBits: 8},
		{label: "4+topk", comp: &fldist.Compression{Bits: 4, Chunk: *chunk, TopK: k}, denseBits: 4},
		{label: "8+topk+delta", comp: &fldist.Compression{Bits: 8, Chunk: *chunk, TopK: k, Delta: true}, denseBits: 8},
		{label: "4+topk+delta", comp: &fldist.Compression{Bits: 4, Chunk: *chunk, TopK: k, Delta: true}, denseBits: 4},
	}

	var rawBytes int64
	dense := map[int]result{} // dense rows by bits, for per-direction comparisons
	for _, s := range settings {
		r := runSetting(build, subs, *clients, *rounds, s, *seed)
		if s.comp == nil {
			rawBytes = r.BytesPerRound
			r.ReductionVsRaw = 1
		} else if r.BytesPerRound > 0 {
			r.ReductionVsRaw = float64(rawBytes) / float64(r.BytesPerRound)
		}
		if s.comp != nil && s.comp.TopK == 0 {
			dense[s.comp.Bits] = r
		}
		if d, ok := dense[s.denseBits]; ok && s.denseBits != 0 {
			if r.BytesIn > 0 {
				r.UplinkRedDense = float64(d.BytesIn) / float64(r.BytesIn)
			}
			if r.BytesOut > 0 {
				r.DownlinkRedDens = float64(d.BytesOut) / float64(r.BytesOut)
			}
		}
		log.Printf("  %-14s bytes/round=%-8d latency/round=%.1fms reduction=%.2fx up-vs-dense=%.2fx down-vs-dense=%.2fx",
			r.Bits, r.BytesPerRound, r.RoundLatencyMS, r.ReductionVsRaw, r.UplinkRedDense, r.DownlinkRedDens)
		rep.Results = append(rep.Results, r)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}

// runSetting federates one warmup round plus `rounds` measured synchronous
// rounds over real HTTP at one codec setting (comp == nil is raw frames) and
// returns the steady-state traffic and latency — counters diffed across the
// measured phase only, so one-time costs (delta cold pulls) stay out of the
// per-round figures.
func runSetting(build func() *nn.Model, subs []*data.Subset, clients, rounds int, s setting, seed int64) result {
	m := build()
	srv := fldist.NewServer(nn.ExportParams(m), nn.ExportBNStats(m), clients)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	cfg := fl.DefaultConfig()
	cfg.LocalIters = 4
	cfg.Batch = 16

	fleet := make([]*fldist.Client, clients)
	for id := 0; id < clients; id++ {
		fleet[id] = &fldist.Client{
			ID:      id,
			BaseURL: "http://" + ln.Addr().String(),
			HTTP:    &http.Client{Timeout: 30 * time.Second},
			Model:   build(),
			Subset:  subs[id],
			Cfg:     cfg,
			Rng:     rand.New(rand.NewSource(seed + int64(id))),
		}
		if s.comp != nil {
			c := *s.comp
			fleet[id].Compression = &c
		}
	}

	phase := func(n int) time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for id, c := range fleet {
			wg.Add(1)
			go func(id int, c *fldist.Client) {
				defer wg.Done()
				errs[id] = c.RunRounds(ctx, n, 0.05)
			}(id, c)
		}
		wg.Wait()
		for id, err := range errs {
			if err != nil {
				log.Fatalf("%s client %d: %v", s.label, id, err)
			}
		}
		return time.Since(start)
	}

	phase(1) // warmup: negotiation, cache builds, delta cold pulls
	base := srv.Stats()
	elapsed := phase(rounds)
	st := srv.Stats()
	cancel()
	<-done

	in := (st.BytesInRaw + st.BytesInCompressed) - (base.BytesInRaw + base.BytesInCompressed)
	outB := (st.BytesOutRaw + st.BytesOutCompressed) - (base.BytesOutRaw + base.BytesOutCompressed)
	measured := st.RoundsCompleted - base.RoundsCompleted
	ch := 0
	if s.comp != nil {
		ch = s.comp.Chunk
	}
	r := result{
		Bits:            s.label,
		Chunk:           ch,
		BytesPerRound:   (in + outB) / int64(measured),
		BytesIn:         in,
		BytesOut:        outB,
		BytesInSparse:   st.BytesInSparse - base.BytesInSparse,
		BytesOutDelta:   st.BytesOutDelta - base.BytesOutDelta,
		BytesOutCold:    st.BytesOutCold - base.BytesOutCold,
		RoundLatencyMS:  float64(elapsed.Milliseconds()) / float64(measured),
		RoundsCompleted: measured,
	}
	if s.comp != nil {
		r.TopK = s.comp.TopK
		r.DeltaDownlink = s.comp.Delta
	}
	return r
}
