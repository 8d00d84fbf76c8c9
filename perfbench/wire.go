package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"fedprophet/internal/data"
	"fedprophet/internal/fl"
	"fedprophet/internal/fldist"
	"fedprophet/internal/nn"
)

// wireShape configures one wire workload.
type wireShape struct {
	width      int  // VGG16S width multiplier
	perClass   int  // CIFAR10-S training images per class
	localIters int  // SGD steps per TrainLocal
	batch      int  // images per step
	pgdSteps   int  // PGD steps per adversarial batch; 0 trains cleanly
	buffered   bool // buffered aggregation (K = 4) with a WAL, else sync quorum 4
	reads      int  // read-only pulls of every codec after every commit
	rounds     int  // measured rounds per pass
}

// fleetSize is the wire workloads' client count: one client per codec.
var fleetSize = len(codecs)

// compressionFor maps a codec name to the client's wire configuration.
func compressionFor(codec string, params int) *fldist.Compression {
	switch codec {
	case "dense8":
		return &fldist.Compression{Bits: 8}
	case "topk4":
		return &fldist.Compression{Bits: 4, TopK: topK(params)}
	case "topk4-delta":
		return &fldist.Compression{Bits: 4, TopK: topK(params), Delta: true}
	}
	return nil // raw gob
}

// wireFat is a sync-quorum federation training VGG16S width 4 with PGD
// adversarial local steps, as jFAT does: kernels dominate the round. One
// step per round keeps rounds short enough for a few hundred pulls and
// pushes per run, which the p90s need to repeat; five steps would push the
// kernel share from about 85% to 96% but leave 120 samples per run.
var wireFat = wireShape{width: 4, perClass: 40, localIters: 1, batch: 8, pgdSteps: 2, rounds: 20}

// wireChurn is a buffered, WAL-backed federation of VGG16S width 8 with one
// clean SGD step on a tiny batch, plus read-only pulls: the wire path
// (codecs, HTTP, admission, commits, served frames, WAL) dominates. Each
// codec gets the same number of reads; 32 per commit is the fewest that
// keeps local training under a tenth of the round.
var wireChurn = wireShape{width: 8, perClass: 4, localIters: 1, batch: 2, buffered: true,
	reads: 32, rounds: 30}

func runWireFat(b *bench) error   { return runWire(b, wireFat) }
func runWireChurn(b *bench) error { return runWire(b, wireChurn) }

// wireLayers accumulates the per-layer samples of a wire run.
type wireLayers struct {
	pull, push       map[string][]float64
	train            []float64
	traced, plain    []float64 // round ms of traced and untraced passes
	attr             attribution
	stats            fldist.Stats // last pass's server counters, diffed over its measured rounds
	admit, serve     [2][]float64 // per pass: the server's p50 and p99, µs
	walBytes, walRec float64
}

// runWire runs fresh loopback federations, one per pass. One goroutine
// drives every client in a fixed order — Pull, TrainLocal, Push, client by
// client — over one keep-alive connection, so no round waits on a timer.
func runWire(b *bench, ws wireShape) error {
	b.notOnPath("cascade", "core")
	wl := &wireLayers{pull: map[string][]float64{}, push: map[string][]float64{}}
	err := b.runPasses(func(pass int, setupOnly bool) error {
		return wirePass(b, ws, pass, setupOnly, wl)
	})
	if err != nil || !b.trace {
		return err
	}
	for _, c := range codecs {
		b.layers["fldist.client.pull_ms."+c] = median(wl.pull[c])
		b.layers["fldist.client.push_ms."+c] = median(wl.push[c])
	}
	b.layers["fldist.client.train_ms"] = median(wl.train)
	st := wl.stats
	per := func(x int64) float64 { return float64(x) / float64(ws.rounds) }
	b.layers["fldist.server.admit_us_p50"] = median(wl.admit[0])
	b.layers["fldist.server.admit_us_p99"] = median(wl.admit[1])
	b.layers["fldist.server.serve_us_p50"] = median(wl.serve[0])
	b.layers["fldist.server.serve_us_p99"] = median(wl.serve[1])
	b.layers["fldist.server.served_builds_per_round"] = per(st.ServedBuilds)
	b.layers["fldist.server.bytes_in_per_round"] = per(st.BytesInRaw + st.BytesInCompressed)
	b.layers["fldist.server.bytes_out_per_round"] = per(st.BytesOutRaw + st.BytesOutCompressed)
	b.layers["fldist.server.bytes_in_sparse_per_round"] = per(st.BytesInSparse)
	b.layers["fldist.server.bytes_out_delta_per_round"] = per(st.BytesOutDelta)
	b.layers["fldist.server.bytes_out_cold_per_round"] = per(st.BytesOutCold)
	b.layers["fldist.wal.bytes_per_round"] = wl.walBytes / float64(ws.rounds)
	b.layers["fldist.wal.records_per_round"] = wl.walRec / float64(ws.rounds)
	b.layers["unattributed_frac"] = wl.attr.unattributedFrac()
	b.layers["trace_overhead_frac"] = median(wl.traced)/median(wl.plain) - 1
	m := nn.VGG16S([]int{3, 16, 16}, 10, ws.width, rand.New(rand.NewSource(b.seed)))
	kernelLayers(b, m, ws.batch, fleetSize)
	return nil
}

// wirePass sets up one federation (data, models, server, clients and a
// warm-up round) from the run's seed, then, unless setupOnly, measures
// ws.rounds rounds and checks the outcome. In a traced run every other pass
// also reads and checks the server's counters at the end of every round,
// inside the round's time.
func wirePass(b *bench, ws wireShape, pass int, setupOnly bool, wl *wireLayers) error {
	traced := b.trace && pass%2 == 1 && !setupOnly
	seed := b.seed
	t0 := time.Now()
	shape := []int{3, 16, 16}
	train, _ := data.Generate(data.CIFAR10SConfig(ws.perClass, 1, seed))
	subs := data.PartitionNonIID(train, data.DefaultPartition(fleetSize, seed))
	build := func() *nn.Model {
		return nn.VGG16S(shape, 10, ws.width, rand.New(rand.NewSource(seed)))
	}
	m := build()
	params := nn.NumParams(m)

	var opts []fldist.ServerOption
	if ws.buffered {
		root := filepath.Join(".bench_build", "tmp")
		if err := os.MkdirAll(root, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(root, "wal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts = append(opts, fldist.WithBufferedAggregation(fleetSize, 1), fldist.WithWAL(dir),
			fldist.WithWALSyncPolicy(fldist.WALSyncNone))
	}
	srv := fldist.NewServer(nn.ExportParams(m), nn.ExportBNStats(m), fleetSize, opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	hc := &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
	defer func() {
		hc.CloseIdleConnections()
		cancel()
		if err := <-served; err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: server:", err)
		}
	}()

	cfg := fl.DefaultConfig()
	cfg.LocalIters = ws.localIters
	cfg.Batch = ws.batch
	newClient := func(id int, codec string) *fldist.Client {
		return &fldist.Client{
			ID: id, BaseURL: "http://" + ln.Addr().String(), HTTP: hc,
			Model: build(), Subset: subs[id%fleetSize], Cfg: cfg,
			Rng:      rand.New(rand.NewSource(seed + int64(id))),
			PGDSteps: ws.pgdSteps, Compression: compressionFor(codec, params),
		}
	}
	clients := make([]*fldist.Client, fleetSize)
	var readers []*fldist.Client
	for i, c := range codecs {
		clients[i] = newClient(i, c)
		if ws.reads > 0 {
			readers = append(readers, newClient(fleetSize+i, c))
		}
	}

	// round steps every client once; the last push commits the round.
	const lr = 0.05
	var losses []float64 // every local loss of the measured rounds
	round := func(want int, measured bool) error {
		start := time.Now()
		var calls [][2]float64 // seconds since start
		call := func(f func() error) (float64, error) {
			t := time.Since(start).Seconds()
			err := f()
			end := time.Since(start).Seconds()
			calls = append(calls, [2]float64{t, end})
			return (end - t) * 1e3, err
		}
		for i, c := range clients {
			var got int
			pullMS, err := call(func() (err error) { got, err = c.Pull(ctx); return })
			b.check(err == nil && got == want, "%s pull: round %d, want %d: %v", codecs[i], got, want, err)
			if err != nil {
				return err
			}
			var loss float64
			trainMS, _ := call(func() error { loss = c.TrainLocal(lr); return nil })
			b.check(finite(loss), "%s: non-finite local loss", codecs[i])
			if measured {
				losses = append(losses, loss)
			}
			var counted bool
			pushMS, err := call(func() (err error) { counted, err = c.Push(ctx, got); return })
			b.check(err == nil && counted, "%s push: counted %v: %v", codecs[i], counted, err)
			if errors.Is(err, fldist.ErrStaleRound) {
				return fmt.Errorf("%s push: stale retrain needed: %w", codecs[i], err)
			} else if err != nil {
				return err
			}
			if measured && !traced {
				b.pullMS[codecs[i]] = append(b.pullMS[codecs[i]], pullMS)
				b.pushMS[codecs[i]] = append(b.pushMS[codecs[i]], pushMS)
			}
			if measured {
				wl.pull[codecs[i]] = append(wl.pull[codecs[i]], pullMS)
				wl.push[codecs[i]] = append(wl.push[codecs[i]], pushMS)
				wl.train = append(wl.train, trainMS)
			}
		}
		for i, c := range readers {
			for n := 0; n < ws.reads; n++ {
				var got int
				pullMS, err := call(func() (err error) { got, err = c.Pull(ctx); return })
				b.check(err == nil && got == want+1, "%s read: round %d, want %d: %v", codecs[i], got, want+1, err)
				if err != nil {
					return err
				}
				if measured && !traced {
					b.pullMS[codecs[i]] = append(b.pullMS[codecs[i]], pullMS)
				}
				if measured {
					wl.pull[codecs[i]] = append(wl.pull[codecs[i]], pullMS)
				}
			}
		}
		if traced && measured {
			st := srv.Stats()
			b.check(statsConsistent(st), "stats invariants broken: %+v", st)
		}
		wall := time.Since(start).Seconds()
		b.check(srv.RoundsCompleted() == want+1, "rounds completed %d, want %d", srv.RoundsCompleted(), want+1)
		switch {
		case !measured:
		case traced:
			wl.traced = append(wl.traced, wall*1e3)
			wl.attr.add(0, wall, calls)
		default:
			wl.plain = append(wl.plain, wall*1e3)
			b.roundMS = append(b.roundMS, wall*1e3)
			b.measured += wall
			b.samples += float64(fleetSize * ws.localIters * ws.batch)
			b.updates += float64(fleetSize)
		}
		return nil
	}

	if err := round(0, false); err != nil {
		return fmt.Errorf("warm-up round: %w", err)
	}
	b.setupS = append(b.setupS, time.Since(t0).Seconds())
	if setupOnly {
		return nil
	}
	base := srv.Stats()
	for r := 1; r <= ws.rounds; r++ {
		if err := round(r, true); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
	}
	st := srv.Stats()
	b.check(st.RoundsCompleted == ws.rounds+1, "rounds completed %d, want %d", st.RoundsCompleted, ws.rounds+1)
	b.check(statsConsistent(st), "stats invariants broken: %+v", st)
	p, bn := srv.Snapshot()
	b.check(finite(p...) && finite(bn...), "non-finite final snapshot")
	for i := range clients {
		b.check(clients[i].StaleRetrains == 0, "%s: %d stale retrains", codecs[i], clients[i].StaleRetrains)
	}
	in := st.BytesInRaw + st.BytesInCompressed - base.BytesInRaw - base.BytesInCompressed
	out := st.BytesOutRaw + st.BytesOutCompressed - base.BytesOutRaw - base.BytesOutCompressed
	b.passOutcome(pass, float64(in+out)/float64(ws.rounds), mean(losses))

	wl.stats = fldist.Stats{
		BytesInRaw:         st.BytesInRaw - base.BytesInRaw,
		BytesInCompressed:  st.BytesInCompressed - base.BytesInCompressed,
		BytesOutRaw:        st.BytesOutRaw - base.BytesOutRaw,
		BytesOutCompressed: st.BytesOutCompressed - base.BytesOutCompressed,
		BytesInSparse:      st.BytesInSparse - base.BytesInSparse,
		BytesOutDelta:      st.BytesOutDelta - base.BytesOutDelta,
		BytesOutCold:       st.BytesOutCold - base.BytesOutCold,
		ServedBuilds:       st.ServedBuilds - base.ServedBuilds,
	}
	wl.admit[0] = append(wl.admit[0], st.AdmitP50Micros)
	wl.admit[1] = append(wl.admit[1], st.AdmitP99Micros)
	wl.serve[0] = append(wl.serve[0], st.PullP50Micros)
	wl.serve[1] = append(wl.serve[1], st.PullP99Micros)
	wl.walBytes, wl.walRec = 0, 0
	if st.WAL != nil && base.WAL != nil {
		wl.walBytes = float64(st.WAL.Bytes - base.WAL.Bytes)
		wl.walRec = float64(st.WAL.Records - base.WAL.Records)
		b.check(!st.WAL.Broken && st.WAL.WriteErrors == 0, "WAL broken: %+v", st.WAL)
	}
	return nil
}

// statsConsistent checks the /stats byte-counter invariants of docs/WIRE.md:
// delta and cold pull bytes are a subset of the compressed downlink, and
// sparse uplink bytes a subset of the compressed uplink. The downlink split
// is exact only when every compressed pull is delta-mode; the dense8 and
// topk4 clients pull compressed dense frames besides.
func statsConsistent(st fldist.Stats) bool {
	return st.BytesOutDelta+st.BytesOutCold <= st.BytesOutCompressed &&
		st.BytesInSparse <= st.BytesInCompressed
}
