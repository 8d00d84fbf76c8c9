package main

// The hierarchical phase and the smoke-edge check: edge aggregators from
// internal/fldist placed between the synthetic fleet and the root, so
// BENCH_serve.json records what the tier buys (root-side push admissions
// reduced by the cohort fan-in at equal client count) and CI pins that a
// 2-tier topology over real HTTP commits bit-identically to the flat fleet.

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fedprophet/internal/fldist"
)

// hierResult is one hierarchical-phase row: the same fleet size driven flat
// against the root or through edge aggregators. RootAdmissions counts pushes
// the root admitted (for the flat fleet that is every client push; for the
// tiered fleet only the combined tier deltas); RootPushReduction is
// ClientPushes/RootAdmissions on the tiered row — the fan-out the root was
// spared, ≥ the cohort fan-in by construction since each flush folds at
// least fanIn cohort updates.
type hierResult struct {
	Clients           int     `json:"clients"`
	Edges             int     `json:"edges,omitempty"`
	FanIn             int     `json:"fan_in,omitempty"`
	Mode              string  `json:"mode"` // "flat" or "tiered"
	Seconds           float64 `json:"seconds"`
	ClientPushes      int64   `json:"client_pushes"`
	RootAdmissions    int64   `json:"root_admissions"`
	Rounds            int     `json:"rounds"`
	UpdatesPerSec     float64 `json:"updates_per_sec"`
	RootPushReduction float64 `json:"root_push_reduction,omitempty"`
}

// runHierPhase drives totalClients synthetic async clients for about d
// wall-clock: straight at a buffered root when nEdges is 0, otherwise split
// into nEdges equal cohorts, each behind an edge aggregator that pre-folds
// and pushes upstream. Clients and wire protocol are identical in both
// shapes; only the topology differs.
func runHierPhase(nEdges, totalClients int, d time.Duration,
	initParams []float64, bits, chunk, shards int) hierResult {
	fanIn := 0
	rootK := totalClients
	if nEdges > 0 {
		if totalClients%nEdges != 0 {
			log.Fatalf("benchserve: %d clients do not split across %d edges", totalClients, nEdges)
		}
		fanIn = totalClients / nEdges
		rootK = nEdges
	}
	root := fldist.NewServer(initParams, nil, 1,
		fldist.WithShards(shards), fldist.WithBufferedAggregation(rootK, 8))
	rootLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	rootHS := &http.Server{Handler: root.Handler()}
	go func() { _ = rootHS.Serve(rootLn) }()
	rootURL := "http://" + rootLn.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()

	// Each client's target: the root, or its cohort's edge.
	targets := make([]string, totalClients)
	var edgeHSs []*http.Server
	if nEdges == 0 {
		for i := range targets {
			targets[i] = rootURL
		}
	} else {
		for i := 0; i < nEdges; i++ {
			e := fldist.NewEdge(rootURL,
				fldist.WithEdgeClientID(1<<20+i*fldist.EdgeIDSpan),
				fldist.WithEdgeFlush(fanIn, 0),
				fldist.WithEdgeWindow(8),
				fldist.WithEdgeShards(shards))
			if err := e.Start(ctx); err != nil {
				log.Fatalf("benchserve: edge %d start: %v", i, err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			hs := &http.Server{Handler: e.Handler()}
			go func() { _ = hs.Serve(ln) }()
			edgeHSs = append(edgeHSs, hs)
			url := "http://" + ln.Addr().String()
			for j := 0; j < fanIn; j++ {
				targets[i*fanIn+j] = url
			}
		}
	}

	transport := &http.Transport{MaxIdleConns: totalClients * 2, MaxIdleConnsPerHost: totalClients * 2}
	hc := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	var wg sync.WaitGroup
	var pushes atomic.Int64
	start := time.Now()
	for id := 0; id < totalClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			runClient(ctx, hc, targets[id], id, initParams, bits, chunk, &pushes)
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, hs := range edgeHSs {
		_ = hs.Close()
	}
	_ = rootHS.Close()

	st := root.Stats()
	res := hierResult{
		Clients:        totalClients,
		Edges:          nEdges,
		FanIn:          fanIn,
		Mode:           "flat",
		Seconds:        elapsed.Seconds(),
		ClientPushes:   pushes.Load(),
		RootAdmissions: st.UpdatesRaw + st.UpdatesCompressed,
		Rounds:         root.RoundsCompleted(),
	}
	res.UpdatesPerSec = float64(res.ClientPushes) / elapsed.Seconds()
	if nEdges > 0 {
		res.Mode = "tiered"
		if res.RootAdmissions > 0 {
			res.RootPushReduction = float64(res.ClientPushes) / float64(res.RootAdmissions)
		}
	}
	return res
}

// ---- smoke-edge ------------------------------------------------------------

// gridInit builds a deterministic initial model on the 2⁻¹² lattice and
// gridClientDelta a per-client delta on the 2⁻¹⁰ lattice: with unit weights
// and power-of-two cohort sizes every fold operation on both topologies is
// exact in float64, so flat and tiered final models must match bit-for-bit
// (the same fixture internal/fldist's TestTwoTierCommitBitIdenticalToFlatFleet
// pins in-process; this one crosses real HTTP and real processes' worth of
// goroutines).
func gridInit(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64((i*2654435761)%4096-2048) / 4096
	}
	return v
}

func gridClientDelta(n, id int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64((id+1)*(i%13-6)) / 1024
	}
	return out
}

// gridCohort pushes one exact update per client id at the target's current
// round, weight 1.
func gridCohort(hc *http.Client, url string, nParams int, ids []int) error {
	for _, id := range ids {
		blob, err := fldist.PullModel(context.Background(), hc, url)
		if err != nil {
			return fmt.Errorf("client %d: %w", id, err)
		}
		delta := gridClientDelta(nParams, id)
		params := make([]float64, nParams)
		for i := range params {
			params[i] = blob.Params[i] + delta[i]
		}
		if _, err := fldist.PushUpdate(context.Background(), hc, url, fldist.Update{
			ClientID: id, Round: blob.Round, Weight: 1, Params: params,
		}); err != nil {
			return fmt.Errorf("client %d: %w", id, err)
		}
	}
	return nil
}

func awaitServerRound(s *fldist.Server, want int) {
	deadline := time.Now().Add(10 * time.Second)
	for s.Round() < want {
		if time.Now().After(deadline) {
			log.Fatalf("benchserve: server stuck at round %d waiting for %d", s.Round(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// runSmokeEdge is the ~2s CI topology check: 2 edges × 4 clients vs the same
// 8 clients flat, over real HTTP, asserting the final models are
// bit-identical and the root-side admission reduction equals the fan-in.
func runSmokeEdge() {
	const nParams = 4096
	const nEdges, fanIn = 2, 4
	init := gridInit(nParams)
	hc := http.DefaultClient
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}

	// Flat fleet: one synchronous round over all 8 clients.
	flat := fldist.NewServer(init, nil, len(ids))
	flatLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	flatHS := &http.Server{Handler: flat.Handler()}
	go func() { _ = flatHS.Serve(flatLn) }()
	if err := gridCohort(hc, "http://"+flatLn.Addr().String(), nParams, ids); err != nil {
		log.Fatalf("benchserve: smoke-edge flat fleet: %v", err)
	}
	awaitServerRound(flat, 1)
	_ = flatHS.Close()
	flatP, _ := flat.Snapshot()

	// Tiered: the same 8 clients split into 2 cohorts of 4, each behind an
	// edge that pre-folds and pushes one combined update to the root.
	root := fldist.NewServer(init, nil, nEdges)
	rootLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	rootHS := &http.Server{Handler: root.Handler()}
	go func() { _ = rootHS.Serve(rootLn) }()
	rootURL := "http://" + rootLn.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < nEdges; i++ {
		e := fldist.NewEdge(rootURL,
			fldist.WithEdgeClientID(1<<20+i*fldist.EdgeIDSpan),
			fldist.WithEdgeFlush(fanIn, 0))
		if err := e.Start(ctx); err != nil {
			log.Fatalf("benchserve: smoke-edge edge %d: %v", i, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		hs := &http.Server{Handler: e.Handler()}
		go func() { _ = hs.Serve(ln) }()
		defer hs.Close()
		if err := gridCohort(hc, "http://"+ln.Addr().String(), nParams, ids[i*fanIn:(i+1)*fanIn]); err != nil {
			log.Fatalf("benchserve: smoke-edge cohort %d: %v", i, err)
		}
	}
	awaitServerRound(root, 1)
	tierP, _ := root.Snapshot()

	for i := range flatP {
		if tierP[i] != flatP[i] {
			log.Fatalf("benchserve: smoke-edge FAIL: params[%d] tiered %v != flat %v (not bit-identical)",
				i, tierP[i], flatP[i])
		}
	}
	st := root.Stats()
	admissions := st.UpdatesRaw + st.UpdatesCompressed
	if admissions != nEdges {
		log.Fatalf("benchserve: smoke-edge FAIL: root admitted %d pushes, want %d", admissions, nEdges)
	}
	_ = rootHS.Close()
	log.Printf("smoke-edge PASS: %d clients via %d edges committed bit-identical to the flat fleet; root admissions %d→%d (%dx reduction)",
		len(ids), nEdges, len(ids), admissions, len(ids)/nEdges)
}
