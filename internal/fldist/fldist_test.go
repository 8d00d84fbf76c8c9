package fldist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fedprophet/internal/attack"
	"fedprophet/internal/data"
	"fedprophet/internal/fl"
	"fedprophet/internal/nn"
	"fedprophet/internal/quant"
)

func testSetup(t *testing.T, clients int, seed int64) (*data.Dataset, *data.Dataset, []*data.Subset, func() *nn.Model) {
	t.Helper()
	cfg := data.SyntheticConfig{
		Name: "dist", Classes: 3, Shape: []int{2, 8, 8},
		TrainPerClass: 30, TestPerClass: 10,
		NoiseStd: 0.08, MixMax: 0.2, Seed: seed,
	}
	train, test := data.Generate(cfg)
	subs := data.PartitionNonIID(train, data.DefaultPartition(clients, seed))
	build := func() *nn.Model {
		return nn.CNN3([]int{2, 8, 8}, 3, 4, rand.New(rand.NewSource(seed)))
	}
	return train, test, subs, build
}

func clientCfg() fl.Config {
	cfg := fl.DefaultConfig()
	cfg.LocalIters = 6
	cfg.Batch = 8
	cfg.Momentum = 0.9
	cfg.WeightDecay = 1e-4
	return cfg
}

func TestServerModelRoundTrip(t *testing.T) {
	_, _, subs, build := testSetup(t, 2, 1)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := &Client{
		ID: 0, BaseURL: ts.URL, HTTP: ts.Client(),
		Model: build(), Subset: subs[0], Cfg: clientCfg(),
		Rng: rand.New(rand.NewSource(2)),
	}
	round, err := c.Pull(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if round != 0 {
		t.Fatalf("round = %d, want 0", round)
	}
	a := nn.ExportParams(m)
	b := nn.ExportParams(c.Model)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pulled model differs from the server's global")
		}
	}

	// The raw pull body is exactly what the delta chain's cold-body builder
	// emits for the same round and vectors: one raw envelope encoder.
	resp, err := ts.Client().Get(ts.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	ch := &deltaChain{entries: []deltaEntry{{round: 0, baseP: a, baseBN: nn.ExportBNStats(m)}}}
	cold, _ := ch.coldLocked()
	if resp.Header.Get("Content-Type") != contentTypeModel || resp.Header.Get(codecHeader) != "" {
		t.Fatalf("raw pull headers: content type %q, codec echo %q",
			resp.Header.Get("Content-Type"), resp.Header.Get(codecHeader))
	}
	if !bytes.Equal(body, cold) {
		t.Fatalf("raw pull body (%d B) differs from the cold-body builder's (%d B)", len(body), len(cold))
	}
}

func TestPushAggregatesAndAdvancesRound(t *testing.T) {
	_, _, subs, build := testSetup(t, 2, 3)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mk := func(id int) *Client {
		return &Client{
			ID: id, BaseURL: ts.URL, HTTP: ts.Client(),
			Model: build(), Subset: subs[id], Cfg: clientCfg(),
			Rng: rand.New(rand.NewSource(int64(10 + id))),
		}
	}
	c0, c1 := mk(0), mk(1)
	for _, c := range []*Client{c0, c1} {
		if _, err := c.Pull(context.Background()); err != nil {
			t.Fatal(err)
		}
		c.TrainLocal(0.05)
	}
	if counted, err := c0.Push(context.Background(), 0); err != nil || !counted {
		t.Fatalf("push: counted=%v err=%v", counted, err)
	}
	if srv.Round() != 0 {
		t.Fatal("round must not advance before quorum")
	}
	if counted, err := c1.Push(context.Background(), 0); err != nil || !counted {
		t.Fatalf("push: counted=%v err=%v", counted, err)
	}
	if srv.Round() != 1 {
		t.Fatalf("round = %d after quorum, want 1", srv.Round())
	}
	// The aggregate must be the weighted mean of the two uploads.
	p0 := nn.ExportParams(c0.Model)
	p1 := nn.ExportParams(c1.Model)
	w0, w1 := float64(subs[0].Len()), float64(subs[1].Len())
	got, gotBN := srv.Snapshot()
	for i := range got {
		want := (w0*p0[i] + w1*p1[i]) / (w0 + w1)
		if diff := got[i] - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("aggregate[%d] = %v, want %v", i, got[i], want)
		}
	}

	// Bit-exact: raw frames hand the fold the clients' exact values, folded
	// in ascending client ID as Σwᵢxᵢ · (1/W) from a zero accumulator.
	initP, initBN := nn.ExportParams(m), nn.ExportBNStats(m)
	b0, b1 := nn.ExportBNStats(c0.Model), nn.ExportBNStats(c1.Model)
	checkBits := func(mode string, got, gotBN []float64, fold func(x0, x1, base []float64, i int) float64) {
		t.Helper()
		for i := range got {
			if want := fold(p0, p1, initP, i); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s: params[%d] = %v, want bit-exact %v", mode, i, got[i], want)
			}
		}
		for i := range gotBN {
			if want := fold(b0, b1, initBN, i); math.Float64bits(gotBN[i]) != math.Float64bits(want) {
				t.Fatalf("%s: bn[%d] = %v, want bit-exact %v", mode, i, gotBN[i], want)
			}
		}
	}
	checkBits("sync", got, gotBN, func(x0, x1, _ []float64, i int) float64 {
		acc := 0.0
		acc += w0 * x0[i]
		acc += w1 * x1[i]
		return acc * (1 / (w0 + w1))
	})

	// Buffered mode folds the same raw pushes as deltas against the base
	// round's snapshot, b + Σwᵢ(xᵢ−b) · (1/W), again in ascending ID order —
	// whatever order they arrive in.
	buffered := NewServer(initP, initBN, 1, WithBufferedAggregation(2, 0))
	bts := httptest.NewServer(buffered.Handler())
	defer bts.Close()
	for _, c := range []*Client{c1, c0} {
		c.BaseURL = bts.URL
		if counted, err := c.Push(context.Background(), 0); err != nil || !counted {
			t.Fatalf("buffered push: counted=%v err=%v", counted, err)
		}
	}
	if buffered.Round() != 1 {
		t.Fatalf("buffered round = %d after K pushes, want 1", buffered.Round())
	}
	bufP, bufBN := buffered.Snapshot()
	checkBits("buffered", bufP, bufBN, func(x0, x1, base []float64, i int) float64 {
		acc := 0.0
		acc += w0 * (x0[i] - base[i])
		acc += w1 * (x1[i] - base[i])
		return base[i] + acc*(1/(w0+w1))
	})
}

func TestStaleRoundRejected(t *testing.T) {
	_, _, subs, build := testSetup(t, 3, 5)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mk := func(id int) *Client {
		return &Client{
			ID: id, BaseURL: ts.URL, HTTP: ts.Client(),
			Model: build(), Subset: subs[id], Cfg: clientCfg(),
			Rng: rand.New(rand.NewSource(int64(20 + id))),
		}
	}
	fast, slow := mk(0), mk(1)
	if _, err := slow.Pull(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Fast client completes round 0 (quorum 1 → aggregation).
	if _, err := fast.Pull(context.Background()); err != nil {
		t.Fatal(err)
	}
	fast.TrainLocal(0.05)
	if _, err := fast.Push(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	// Slow client now pushes for round 0 and must be told it is stale. The
	// sentinel contract is errors.Is, never ==: Push is free to wrap it.
	slow.TrainLocal(0.05)
	if _, err := slow.Push(context.Background(), 0); !errors.Is(err, ErrStaleRound) {
		t.Fatalf("want ErrStaleRound, got %v", err)
	}
}

// The /round body must be a bare ASCII decimal: a trailing-garbage body that
// fmt.Sscanf("%d") would have silently accepted (e.g. "3 oops" → 3) is a
// protocol error, as is anything non-numeric or negative.
func TestRoundParsingRejectsGarbage(t *testing.T) {
	cases := []struct {
		body string
		want int
		ok   bool
	}{
		{"3", 3, true},
		{" 7\n", 7, true}, // surrounding whitespace is tolerated
		{"0", 0, true},
		{"3 oops", 0, false},
		{"3.5", 0, false},
		{"", 0, false},
		{"-1", 0, false},
		{"0x10", 0, false},
	}
	for _, tc := range cases {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, tc.body)
		}))
		c := &Client{ID: 0, BaseURL: ts.URL, HTTP: ts.Client()}
		got, err := c.Round(context.Background())
		ts.Close()
		if tc.ok {
			if err != nil || got != tc.want {
				t.Fatalf("Round(%q) = %d, %v; want %d, nil", tc.body, got, err, tc.want)
			}
			continue
		}
		if err == nil {
			t.Fatalf("Round(%q) = %d, want protocol error", tc.body, got)
		}
	}
}

func TestMalformedAndWrongShapeUpdates(t *testing.T) {
	_, _, _, build := testSetup(t, 2, 7)
	m := build()
	params, bn := nn.ExportParams(m), nn.ExportBNStats(m)
	if len(bn) == 0 {
		t.Fatal("test model has no BN statistics; the BN cases need some")
	}
	srv := NewServer(params, bn, 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	raw := func(p, b []float64) []byte {
		body, err := encodeRawUpdate(Update{Round: 0, Weight: 1, Params: p, BN: b})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	with := func(v []float64, i int, x float64) []float64 {
		out := append([]float64(nil), v...)
		out[i] = x
		return out
	}
	good := raw(params, bn)
	quantBN, err := encodeUpdateEnvelope(0, 0, 1, quant.EncodeRaw(params),
		quant.Encode(quant.QuantizeChunks(bn, 8, 64)))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"garbage", []byte("garbage")},
		{"params length mismatch", raw([]float64{1, 2}, bn)},
		{"bn length mismatch", raw(params, bn[:len(bn)-1])},
		{"non-finite param", raw(with(params, 3, math.NaN()), bn)},
		{"non-finite bn", raw(params, with(bn, 0, math.Inf(-1)))},
		{"raw params with a quantized bn frame", quantBN},
		{"truncated frame", good[:len(good)-5]},
		{"trailing bytes", append(append([]byte(nil), good...), 0)},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+"/update", contentTypeDelta, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if st := srv.Stats(); st.UpdatesRaw != 0 || st.RoundsCompleted != 0 {
			t.Fatalf("%s admitted something: updates_raw %d, rounds %d", tc.name, st.UpdatesRaw, st.RoundsCompleted)
		}
	}
	// The well-formed body the hostile ones were cut from is admitted, so
	// each 400 above is the server policing that one defect.
	resp, err := ts.Client().Post(ts.URL+"/update", contentTypeDelta, bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := srv.Stats(); resp.StatusCode != http.StatusOK || st.UpdatesRaw != 1 || st.RoundsCompleted != 1 {
		t.Fatalf("well-formed raw push: status %d, updates_raw %d, rounds %d",
			resp.StatusCode, st.UpdatesRaw, st.RoundsCompleted)
	}
}

// End-to-end: concurrent clients federate over real HTTP and the global
// model learns the task.
func TestDistributedFederationLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed integration test")
	}
	const clients = 3
	const rounds = 6
	train, test, subs, build := testSetup(t, clients, 9)
	_ = train
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), clients)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := &Client{
				ID: id, BaseURL: ts.URL, HTTP: ts.Client(),
				Model: build(), Subset: subs[id], Cfg: clientCfg(),
				Rng: rand.New(rand.NewSource(int64(100 + id))),
			}
			errs[id] = c.RunRounds(context.Background(), rounds, 0.05)
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	if srv.RoundsCompleted() < rounds {
		t.Fatalf("server completed %d rounds, want ≥ %d", srv.RoundsCompleted(), rounds)
	}

	params, bn := srv.Snapshot()
	final := build()
	nn.ImportParams(final, params)
	nn.ImportBNStats(final, bn)
	acc := attack.CleanAccuracy(final, test, 16)
	if acc <= 0.5 {
		t.Fatalf("distributed federation failed to learn: accuracy %v", acc)
	}
}

// A client that retries its push after a lost/slow 200 must not be
// double-counted in the round's FedAvg weights.
func TestDuplicateUpdateNotDoubleCounted(t *testing.T) {
	_, _, subs, build := testSetup(t, 2, 13)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mk := func(id int) *Client {
		return &Client{
			ID: id, BaseURL: ts.URL, HTTP: ts.Client(),
			Model: build(), Subset: subs[id], Cfg: clientCfg(),
			Rng: rand.New(rand.NewSource(int64(40 + id))),
		}
	}
	ctx := context.Background()
	c0, c1 := mk(0), mk(1)
	for _, c := range []*Client{c0, c1} {
		if _, err := c.Pull(ctx); err != nil {
			t.Fatal(err)
		}
		c.TrainLocal(0.05)
	}
	// Client 0 pushes, then retries the same round (simulating a lost 200).
	if counted, err := c0.Push(ctx, 0); err != nil || !counted {
		t.Fatalf("first push: counted=%v err=%v", counted, err)
	}
	counted, err := c0.Push(ctx, 0)
	if err != nil {
		t.Fatalf("duplicate push must be acknowledged idempotently, got %v", err)
	}
	if counted {
		t.Fatal("duplicate push must report counted=false so the client does not mistake it for progress")
	}
	if srv.Round() != 0 {
		t.Fatal("duplicate must not count toward the quorum")
	}
	if got := srv.DuplicatesDropped(); got != 1 {
		t.Fatalf("DuplicatesDropped = %d, want 1", got)
	}
	if counted, err := c1.Push(ctx, 0); err != nil || !counted {
		t.Fatalf("push: counted=%v err=%v", counted, err)
	}
	if srv.Round() != 1 {
		t.Fatalf("round = %d after both distinct clients pushed, want 1", srv.Round())
	}
	// The aggregate must weight each client exactly once.
	p0, p1 := nn.ExportParams(c0.Model), nn.ExportParams(c1.Model)
	w0, w1 := float64(subs[0].Len()), float64(subs[1].Len())
	got, _ := srv.Snapshot()
	for i := range got {
		want := (w0*p0[i] + w1*p1[i]) / (w0 + w1)
		if diff := got[i] - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("aggregate[%d] = %v, want single-counted %v", i, got[i], want)
		}
	}
}

// Serve must run until canceled, then shut down gracefully.
func TestServerGracefulShutdown(t *testing.T) {
	_, _, _, build := testSetup(t, 2, 17)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 1)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	// Wait until the server answers, then cancel and expect a clean exit.
	c := &Client{ID: 0, BaseURL: "http://" + ln.Addr().String(), HTTP: &http.Client{}, Model: build()}
	var pullErr error
	for i := 0; i < 50; i++ {
		if _, pullErr = c.Pull(ctx); pullErr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if pullErr != nil {
		t.Fatalf("server never came up: %v", pullErr)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down after cancel")
	}
}

// The lightweight round endpoint must track aggregations without shipping
// the model blob.
func TestRoundEndpoint(t *testing.T) {
	_, _, subs, build := testSetup(t, 2, 19)
	m := build()
	srv := NewServer(nn.ExportParams(m), nn.ExportBNStats(m), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := &Client{
		ID: 0, BaseURL: ts.URL, HTTP: ts.Client(),
		Model: build(), Subset: subs[0], Cfg: clientCfg(),
		Rng: rand.New(rand.NewSource(60)),
	}
	ctx := context.Background()
	if r, err := c.Round(ctx); err != nil || r != 0 {
		t.Fatalf("Round = %d, %v; want 0, nil", r, err)
	}
	if _, err := c.Pull(ctx); err != nil {
		t.Fatal(err)
	}
	c.TrainLocal(0.05)
	if counted, err := c.Push(ctx, 0); err != nil || !counted {
		t.Fatalf("push: counted=%v err=%v", counted, err)
	}
	if r, err := c.Round(ctx); err != nil || r != 1 {
		t.Fatalf("Round after quorum = %d, %v; want 1, nil", r, err)
	}
}
