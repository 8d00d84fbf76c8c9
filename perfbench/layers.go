package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"fedprophet/internal/attack"
	"fedprophet/internal/cascade"
	"fedprophet/internal/data"
	"fedprophet/internal/exp"
	"fedprophet/internal/fl"
	"fedprophet/internal/fldist"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
	"fedprophet/internal/quant"
	"fedprophet/internal/tensor"
)

// layerReps is how many timed calls each per-layer median takes, after one
// untimed call that fills caches and scratch arenas.
const layerReps = 15

// medianMS times f layerReps times after one warm-up call.
func medianMS(f func()) float64 {
	f()
	ts := make([]float64, layerReps)
	for i := range ts {
		t := time.Now()
		f()
		ts[i] = time.Since(t).Seconds() * 1e3
	}
	return median(ts)
}

// randomBatch draws a batch of inputs in [0, 1) and labels.
func randomBatch(rng *rand.Rand, batch int, shape []int, classes int) (*tensor.Tensor, []int) {
	x := tensor.New(append([]int{batch}, shape...)...)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	y := make([]int, batch)
	for i := range y {
		y[i] = rng.Intn(classes)
	}
	return x, y
}

// kernelLayers measures the kernel-level layers at a workload's model,
// batch size and fleet size: the dominant im2col GEMM, one forward,
// backward and SGD step, one PGD step, one FedAvg fold and the codecs on
// the model's parameter vector.
func kernelLayers(b *bench, m *nn.Model, batch, clients int) {
	rng := rand.New(rand.NewSource(b.seed))
	x, y := randomBatch(rng, batch, m.InShape, m.NumClasses)

	// Dominant GEMM: the conv with the most multiply-adds; its per-image
	// GEMM is (OutC × InC·K²) · (InC·K² × H·W).
	var gm, gk, gn int
	in := m.InShape
	for _, atom := range m.Atoms {
		for _, c := range nn.CollectConvs(atom) {
			mm, kk, nn := c.OutC, c.InC*c.Kernel*c.Kernel, in[1]*in[2]
			if mm*kk*nn > gm*gk*gn {
				gm, gk, gn = mm, kk, nn
			}
		}
		in = atom.OutShape(in)
	}
	a := make([]float64, gm*gk)
	bm := make([]float64, gk*gn)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range bm {
		bm[i] = rng.NormFloat64()
	}
	dst := make([]float64, gm*gn)
	// One call is microseconds; time a block of them.
	const gemmCalls = 200
	ms := medianMS(func() {
		for i := 0; i < gemmCalls; i++ {
			tensor.MatMulInto(dst, a, bm, gm, gk, gn)
		}
	})
	b.layers["tensor.gemm_gflops"] = 2 * float64(gm*gk*gn) * gemmCalls / (ms * 1e6)

	var g *tensor.Tensor
	b.layers["nn.fwd_ms"] = medianMS(func() {
		out := m.Forward(x, true)
		_, g = nn.SoftmaxCrossEntropy(out, y)
	})
	b.layers["nn.bwd_ms"] = medianMS(func() {
		nn.ZeroGrads(m)
		m.Backward(g)
	})
	opt := nn.NewSGD(0.01, 0.9, 1e-4)
	b.layers["nn.sgd_step_ms"] = medianMS(func() { opt.Step(m.Params()) })
	b.layers["attack.pgd_step_ms"] = medianMS(func() {
		attack.Perturb(attack.PGDConfig(8.0/255, 1), x, attack.CEGradFn(m, y), rng)
	})

	v := nn.ExportParams(m)
	vecs := make([][]float64, clients)
	ws := make([]float64, clients)
	for i := range vecs {
		vecs[i] = v
		ws[i] = float64(i + 1)
	}
	b.layers["fl.aggregate_ms"] = medianMS(func() { fl.WeightedAverage(vecs, ws) })

	chunk := fldist.DefaultChunk
	for _, bits := range []int{8, 4} {
		var frame []byte
		name := fmt.Sprintf("dense%d", bits)
		b.layers["quant.encode_ms."+name] = medianMS(func() {
			frame = quant.Encode(quant.QuantizeChunks(v, bits, chunk))
		})
		b.layers["quant.decode_ms."+name] = medianMS(func() { decodeVector(b, frame, len(v)) })
	}
	var idx []int
	k := topK(len(v))
	b.layers["quant.topk_ms"] = medianMS(func() { idx = quant.TopKIndices(v, k) })
	deq := make([]float64, len(idx))
	var frame []byte
	b.layers["quant.encode_ms.topk4"] = medianMS(func() { frame = quant.EncodeSparse(v, idx, 4, chunk, deq) })
	b.layers["quant.decode_ms.topk4"] = medianMS(func() { decodeVector(b, frame, len(v)) })
}

// decodeVector decodes one frame to a dense vector and checks its length.
func decodeVector(b *bench, frame []byte, n int) {
	f, err := quant.Decode(frame)
	b.check(err == nil && len(f.Vector()) == n, "quant: decoding a %d-value frame: %v", n, err)
}

// topK is the sparse uplink's coordinate budget: 1/64 of the parameters,
// as in cmd/benchwire.
func topK(params int) int { return params / 64 }

// cascadeLayers measures each cascade module of cascade-fat's model: one
// feature-space adversarial training step on the module alone, the peak
// heap that step needs, and ModuleMemReq's prediction.
func cascadeLayers(b *bench, s exp.Scale) error {
	env := cascadeEnv(s)
	opts := cascadeOptions(s)
	rng := rand.New(rand.NewSource(b.seed))
	build := func() *cascade.Cascade {
		m := opts.Build(nil)
		rmin := int64(opts.RminFrac * float64(memmodel.MemReqModel(m, env.Cfg.Batch).TotalBytes))
		return cascade.Partition(m, rmin, env.Cfg.Batch, rand.New(rand.NewSource(b.seed)))
	}
	c := build()
	if len(c.Modules) != cascadeModules {
		return fmt.Errorf("cascade-fat: %d modules, want %d", len(c.Modules), cascadeModules)
	}
	idx := make([]int, env.Cfg.Batch)
	for i := range idx {
		idx[i] = i
	}
	x, y := data.Batch(env.Train, idx)
	opt := nn.NewSGD(env.Cfg.LR, env.Cfg.Momentum, env.Cfg.WeightDecay)
	for k := range c.Modules {
		atk := attack.FeaturePGDConfig(0.5, opts.FeaturePGDSteps)
		if k == 0 {
			atk = attack.PGDConfig(env.Cfg.Eps, env.Cfg.TrainPGD)
		}
		z := c.ForwardPrefix(x, k)
		b.layers[fmt.Sprintf("cascade.adv_step_ms.m%d", k)] = medianMS(func() {
			c.AdversarialStep(z, y, k, k, atk, opts.Mu, opt, rng)
		})
		// Peak heap of the first step on a fresh replica, whose scratch
		// buffers are allocated during the step.
		fresh := build()
		zf := fresh.ForwardPrefix(x, k)
		b.layers[fmt.Sprintf("cascade.heap_peak_mb.m%d", k)] = heapPeakMB(func() {
			fresh.AdversarialStep(zf, y, k, k, atk, opts.Mu, opt, rng)
		})
		b.layers[fmt.Sprintf("cascade.memreq_mb.m%d", k)] = float64(c.ModuleMemReq(k)) / (1 << 20)
	}
	kernelLayers(b, opts.Build(nil), env.Cfg.Batch, env.Cfg.ClientsPerRound)
	return nil
}

// heapPeakMB runs f with the collector at GOGC=1 and returns the largest
// rise of the heap's object bytes above their level before the call. A
// second goroutine samples them every few tens of microseconds while f
// runs. At GOGC=1 a collection starts as soon as the heap outgrows the last
// marked live heap by a percent, so dead objects are freed almost at once
// and the peak tracks f's live heap — activations, attack state and scratch
// buffers — plus what f allocates while a cycle is marking.
func heapPeakMB(f func()) float64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	old := debug.SetGCPercent(1)
	defer debug.SetGCPercent(old)
	runtime.GC()
	base := read()
	peak := base
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			if v := read(); v > peak {
				peak = v
			}
			select {
			case <-stop:
				return
			default:
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()
	f()
	close(stop)
	<-done
	return float64(peak-base) / (1 << 20)
}
