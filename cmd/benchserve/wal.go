package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"fedprophet/internal/fldist"
)

// The durability plane: how much updates/sec the write-ahead log costs
// (runWALPhase, part of the tracked bench report) and whether a server
// SIGKILLed mid-round actually comes back where it left off (runSmokeWAL,
// the ~2s CI crash drill).

// walResult is one buffered-aggregation throughput phase, with or without
// the WAL underneath.
type walResult struct {
	Clients         int     `json:"clients"`
	WAL             bool    `json:"wal"`
	CommitThreshold int     `json:"commit_threshold"`
	MaxStaleness    int     `json:"max_staleness"`
	Seconds         float64 `json:"seconds"`
	Updates         int64   `json:"updates"`
	Rounds          int     `json:"rounds"`
	UpdatesPerSec   float64 `json:"updates_per_sec"`
	WALBytes        int64   `json:"wal_bytes,omitempty"`
	WALRecords      int64   `json:"wal_records,omitempty"`
}

// runWALPhase drives n async clients — each simulating `train` of local
// compute per round, the same duty cycle as the straggler phases — against a
// buffered server for about d wall-clock, logging to walDir when non-empty.
// Identical fleet, identical server config — the measured difference is the
// WAL alone: one record appended per admission (wire frames for these
// compressed clients), one snapshot record per commit, and the paced
// background fsync behind WALSyncCommit (set WALSYNC=none to isolate the
// write volume from the fsync stalls). The train think-time matters: it is
// what a real
// federation gives the server to overlap log writes with, so this measures
// the throughput a deployed fleet loses to durability, not the cost of
// appending at synthetic zero-train saturation (WALBytes/Seconds in the
// report shows the sustained log bandwidth either way).
func runWALPhase(n int, d, train time.Duration, initParams []float64, bits, chunk, shards int, walDir string) walResult {
	commitK := n - 1
	const maxStale = 8
	opts := []fldist.ServerOption{
		fldist.WithShards(shards),
		fldist.WithBufferedAggregation(commitK, maxStale),
	}
	if walDir != "" {
		opts = append(opts, fldist.WithWAL(walDir))
		if os.Getenv("WALSYNC") == "none" {
			opts = append(opts, fldist.WithWALSyncPolicy(fldist.WALSyncNone))
		}
	}
	srv := fldist.NewServer(initParams, nil, commitK, opts...)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	transport := &http.Transport{MaxIdleConns: n * 2, MaxIdleConnsPerHost: n * 2}
	hc := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	var wg sync.WaitGroup
	var updates, wasted, stragglerUpdates atomic.Int64
	start := time.Now()
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			runStragglerClient(ctx, hc, url, id, train, true, initParams, bits, chunk,
				&updates, &wasted, &stragglerUpdates)
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Drain in-flight handlers before closing the server: a handler still
	// appending to the WAL after Close would count as a write failure.
	shCtx, shCancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = hs.Shutdown(shCtx)
	shCancel()

	total := updates.Load()
	res := walResult{
		Clients:         n,
		WAL:             walDir != "",
		CommitThreshold: commitK,
		MaxStaleness:    maxStale,
		Seconds:         elapsed.Seconds(),
		Updates:         total,
		Rounds:          srv.RoundsCompleted(),
		UpdatesPerSec:   float64(total) / elapsed.Seconds(),
	}
	if ws := srv.Stats().WAL; ws != nil {
		res.WALBytes = ws.Bytes
		res.WALRecords = ws.Records
	}
	srv.Close()
	return res
}

// walChildEnv, when set, turns a benchserve invocation into the WAL crash
// drill's disposable server process: create (or recover) a WAL-backed
// buffered server in that directory, announce the listen URL and starting
// round on stdout, and serve until killed.
const walChildEnv = "BENCHSERVE_WAL_CHILD_DIR"

const (
	walSmokeParams = 4096
	walSmokeK      = 4
)

func runWALChild(dir string) {
	var srv *fldist.Server
	if fldist.WALExists(dir) {
		s, err := fldist.RecoverServer(dir)
		if err != nil {
			log.Fatalf("benchserve: wal child recover: %v", err)
		}
		srv = s
	} else {
		srv = fldist.NewServer(gridInit(walSmokeParams), nil, 1,
			fldist.WithBufferedAggregation(walSmokeK, walSmokeK), fldist.WithWAL(dir))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WALCHILD http://%s %d\n", ln.Addr(), srv.Round())
	log.Fatal(http.Serve(ln, srv.Handler()))
}

// spawnWALChild re-execs this binary as a WAL child on dir and returns the
// process and the URL/round it announced.
func spawnWALChild(dir string) (*exec.Cmd, string, int) {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), walChildEnv+"="+dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		log.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		log.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		log.Fatalf("benchserve: wal child died before announcing: %v", sc.Err())
	}
	var url string
	var round int
	if _, err := fmt.Sscanf(sc.Text(), "WALCHILD %s %d", &url, &round); err != nil {
		log.Fatalf("benchserve: wal child announced %q: %v", sc.Text(), err)
	}
	return cmd, url, round
}

// runSmokeWAL is the ~2s CI crash drill: a WAL-backed server in a child
// process is fed a deterministic serial fleet, SIGKILLed mid-round (with
// admitted-but-uncommitted updates in its buffer), restarted to recover and
// federate further, killed again — and the final in-process recovery must
// land bit-identically on the model the last incarnation served.
func runSmokeWAL() {
	start := time.Now()
	dir, err := os.MkdirTemp("", "benchserve-wal-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	hc := http.DefaultClient

	id := 0
	pushN := func(url string, n int) {
		for i := 0; i < n; i++ {
			blob, err := fldist.PullModel(context.Background(), hc, url)
			if err != nil {
				log.Fatalf("benchserve: smoke-wal pull: %v", err)
			}
			delta := gridClientDelta(walSmokeParams, id)
			params := make([]float64, walSmokeParams)
			for j := range params {
				params[j] = blob.Params[j] + delta[j]
			}
			if _, err := fldist.PushUpdate(context.Background(), hc, url, fldist.Update{
				ClientID: id, Round: blob.Round, Weight: 1, Params: params,
			}); err != nil {
				log.Fatalf("benchserve: smoke-wal push %d: %v", id, err)
			}
			id++
		}
	}

	// Incarnation 1: two committed rounds plus two admissions the process
	// never gets to fold — then kill -9, mid-round by construction.
	cmd, url, round := spawnWALChild(dir)
	if round != 0 {
		log.Fatalf("benchserve: smoke-wal FAIL: fresh child started at round %d", round)
	}
	pushN(url, 2*walSmokeK+2)
	if err := cmd.Process.Kill(); err != nil {
		log.Fatal(err)
	}
	_ = cmd.Wait()

	// Incarnation 2: recovery must resume at round 2 with the two orphaned
	// admissions back in its buffer — two more pushes complete that round's
	// commit, one more full buffer lands round 4.
	cmd, url, round = spawnWALChild(dir)
	if round != 2 {
		log.Fatalf("benchserve: smoke-wal FAIL: recovered child at round %d, want 2", round)
	}
	pushN(url, 2*walSmokeK-2)
	blob, err := fldist.PullModel(context.Background(), hc, url)
	if err != nil {
		log.Fatal(err)
	}
	if blob.Round != 4 {
		log.Fatalf("benchserve: smoke-wal FAIL: served round %d after the full script, want 4", blob.Round)
	}
	if err := cmd.Process.Kill(); err != nil {
		log.Fatal(err)
	}
	_ = cmd.Wait()

	// Final recovery, in-process: bit-identical to the model the dead server
	// was serving.
	rec, err := fldist.RecoverServer(dir)
	if err != nil {
		log.Fatalf("benchserve: smoke-wal FAIL: final recovery: %v", err)
	}
	defer rec.Close()
	if rec.Round() != blob.Round {
		log.Fatalf("benchserve: smoke-wal FAIL: recovered round %d, want %d", rec.Round(), blob.Round)
	}
	p, _ := rec.Snapshot()
	for i := range blob.Params {
		if p[i] != blob.Params[i] {
			log.Fatalf("benchserve: smoke-wal FAIL: params[%d] recovered %v != served %v (not bit-identical)",
				i, p[i], blob.Params[i])
		}
	}
	log.Printf("smoke-wal PASS: survived 2 SIGKILLs mid-round; recovery resumed at round 2 with 2 buffered updates replayed and the final model is bit-identical to the last served snapshot (%d params, %.1fs)",
		walSmokeParams, time.Since(start).Seconds())
}
