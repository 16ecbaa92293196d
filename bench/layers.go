package bench

import (
	"fmt"
	"runtime"
	"sync"

	"seal"
	"seal/internal/aes"
	"seal/internal/core"
	"seal/internal/exp"
	"seal/internal/gpu"
	"seal/internal/models"
	"seal/internal/nn"
	"seal/internal/parallel"
	"seal/internal/prng"
	"seal/internal/secure"
	"seal/internal/serve"
	"seal/internal/tensor"
	"seal/internal/trace"
)

// probeReps is how many times a layer probe repeats; it reports the
// median.
const probeReps = 5

// sweepSpec is the model of the per-layer sweep: serve-engine's VGG-16.
var sweepSpec = servingWorkloads()["serve-engine"].models[0].spec

// batchOf packs the samples into one input tensor.
func batchOf(arch *seal.Arch, samples [][]float32) *tensor.Tensor {
	x := tensor.New(len(samples), arch.InC, arch.InH, arch.InW)
	for i, s := range samples {
		copy(x.Data[i*len(s):], s)
	}
	return x
}

func prepare(spec serve.ModelSpec) (*seal.Prepared, *seal.Arch, error) {
	arch, err := archFor(spec)
	if err != nil {
		return nil, nil, err
	}
	o := seal.DefaultOptions()
	if spec.Ratio != nil {
		o.Ratio = *spec.Ratio
	}
	opts := []seal.PrepareOption{seal.WithOptions(o), seal.WithBatch(maxBatch), seal.WithKey(seal.KeyFromString("sealbench"))}
	if spec.Int8 {
		opts = append(opts, seal.WithInt8())
	}
	p, err := seal.Prepare(arch, spec.Seed, opts...)
	return p, arch, err
}

// secureProbe times the streaming engine of one model from outside:
// forwards at batch 1 and at maxBatch, the plaintext forward, decrypt of
// every weight region, concurrent engines, and the engine's own counts.
func secureProbe(m meter, spec serve.ModelSpec, samples [][]float32, v map[string]float64) error {
	root, end := m.span("probe.secure")
	defer end()
	p, arch, err := prepare(spec)
	if err != nil {
		return err
	}
	x1, x8 := batchOf(arch, samples[:1]), batchOf(arch, samples[:maxBatch])
	eng := p.Engine()
	eng.Forward(x8)
	v["secure.t1_ms"] = m.median(root, "secure.forward_1", func() { eng.Forward(x1) })
	tmax := m.median(root, "secure.forward_max", func() { eng.Forward(x8) })
	v["secure.tmax_ms"] = tmax

	plainModel, err := models.Build(arch, prng.New(spec.Seed))
	if err != nil {
		return err
	}
	if spec.Int8 {
		nn.EnableInt8(plainModel.Net)
	}
	plainModel.Forward(x8, false)
	plain := m.median(root, "nn.forward_max", func() { plainModel.Forward(x8, false) })
	v["secure.over_plain"] = tmax / plain
	dec, err := decryptTimes(m, root, p.Image())
	if err != nil {
		return err
	}
	sum := 0.0
	for _, d := range dec {
		sum += d
	}
	v["secure.overlap_ms"] = sum + plain - tmax

	const counted = 3
	eng.ResetStats()
	for i := 0; i < counted; i++ {
		eng.Forward(x8)
	}
	st := eng.Stats()
	v["secure.panels_per_fwd"] = float64(st.Panels) / counted
	v["secure.mb_decrypted_per_fwd"] = float64(st.BytesDecrypted) / counted / 1e6
	v["secure.mb_copied_per_fwd"] = float64(st.BytesCopied) / counted / 1e6

	// Allocations are counted on the serial path, where a warm forward's
	// count is fixed; the parallel path's goroutine hand-offs vary.
	prev := parallel.SetWorkers(1)
	eng.Forward(x8)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < counted; i++ {
		eng.Forward(x8)
	}
	runtime.ReadMemStats(&m1)
	parallel.SetWorkers(prev)
	v["secure.allocs_per_fwd"] = float64(m1.Mallocs-m0.Mallocs) / counted

	qps, err := batchQPS(m, root, p, eng, arch, samples)
	if err != nil {
		return err
	}
	v["secure.batch_qps"] = qps
	return nil
}

// batchQPS runs as many engines as the gateway gives a model, each
// forwarding full batches on its own goroutine, and returns the samples
// per second they complete together: the engine roofline of one model.
func batchQPS(m meter, parent int64, p *seal.Prepared, eng *secure.Engine, arch *seal.Arch, samples [][]float32) (float64, error) {
	engines := []*secure.Engine{eng}
	for len(engines) < parallel.Workers() {
		e, err := p.NewEngine()
		if err != nil {
			return 0, err
		}
		engines = append(engines, e)
	}
	inputs := make([]*tensor.Tensor, len(engines))
	for i, e := range engines {
		inputs[i] = batchOf(arch, samples[:maxBatch])
		e.Forward(inputs[i])
	}
	var wg sync.WaitGroup
	d := m.time(parent, "secure.batch", func() {
		for i, e := range engines {
			wg.Add(1)
			go func(e *secure.Engine, x *tensor.Tensor) {
				defer wg.Done()
				for r := 0; r < probeReps; r++ {
					e.Forward(x)
				}
			}(e, inputs[i])
		}
		wg.Wait()
	})
	return float64(len(engines)*probeReps*maxBatch) / (d / 1e3), nil
}

// decryptTimes times DecryptRegionInto on each weight region of img, in
// ms per layer.
func decryptTimes(m meter, parent int64, img *core.MemoryImage) (map[string]float64, error) {
	layers := img.Layout.Plan.Layers
	var size uint64
	for _, lp := range layers {
		if r := img.Layout.Region("w:" + lp.Name); r != nil && r.Size > size {
			size = r.Size
		}
	}
	buf := make([]byte, size)
	out := make(map[string]float64, len(layers))
	for _, lp := range layers {
		r := img.Layout.Region("w:" + lp.Name)
		var err error
		out[lp.Name] = m.median(parent, "core.decrypt."+lp.Name, func() {
			_, err = img.DecryptRegionInto(r, buf)
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// plainTimes times each module's eval forward at the batch of x and
// charges it to the weight layer it follows (BN, ReLU and pooling go
// with the convolution before them), in ms per layer.
func plainTimes(m meter, parent int64, model *models.Model, x *tensor.Tensor) map[string]float64 {
	weight := make(map[nn.Module]string, len(model.WeightLayers))
	for _, w := range model.WeightLayers {
		if w.Conv != nil {
			weight[w.Conv] = w.Name
		} else {
			weight[w.FC] = w.Name
		}
	}
	runs := make(map[string][]float64)
	for r := 0; r < probeReps; r++ {
		sum := make(map[string]float64)
		cur, y := "", x
		for _, mod := range model.Net.Modules {
			if n, ok := weight[mod]; ok {
				cur = n
			}
			in := y
			sum[cur] += m.time(parent, "nn.plain."+cur, func() { y = mod.Forward(in, false) })
		}
		for k, s := range sum {
			runs[k] = append(runs[k], s)
		}
	}
	out := make(map[string]float64, len(runs))
	for k, xs := range runs {
		out[k] = median(xs)
	}
	return out
}

// layerSweep measures the layers every workload shares, on fixed inputs:
// the five constructors behind seal.Prepare, decrypt and plaintext
// forward per VGG-16 layer, the AES-CTR keystream, and one grid cell
// through the trace and gpu packages.
func layerSweep(m meter, v map[string]float64) error {
	root, end := m.span("probe.layers")
	defer end()
	arch, err := archFor(sweepSpec)
	if err != nil {
		return err
	}
	key := seal.KeyFromString("sealbench").Bytes()
	var (
		model  *models.Model
		plan   *core.Plan
		layout *core.Layout
		img    *core.MemoryImage
	)
	// Each constructor consumes the previous one's result.
	steps := []struct {
		metric, span string
		fn           func() error
	}{
		{"models.build_ms", "models.build", func() (err error) { model, err = models.Build(arch, prng.New(sweepSpec.Seed)); return }},
		{"core.plan_ms", "core.plan", func() (err error) { plan, err = core.NewPlan(model, core.DefaultOptions()); return }},
		{"core.layout_ms", "core.layout", func() (err error) { layout, err = core.NewLayout(plan, maxBatch); return }},
		{"core.seal_ms", "core.seal", func() (err error) { img, err = core.NewMemoryImage(layout, model, key); return }},
		{"secure.new_engine_ms", "secure.new_engine", func() (err error) { _, err = secure.NewEngine(img, model, 0); return }},
	}
	for _, st := range steps {
		var err error
		v[st.metric] = m.median(root, st.span, func() { err = st.fn() })
		if err != nil {
			return err
		}
	}

	dec, err := decryptTimes(m, root, img)
	if err != nil {
		return err
	}
	x := batchOf(arch, makeSamples(sweepSpec.Seed, arch.InC*arch.InH*arch.InW)[:maxBatch])
	plain := plainTimes(m, root, model, x)
	for _, l := range vgg16Layers {
		d, ok1 := dec[l]
		f, ok2 := plain[l]
		if !ok1 || !ok2 {
			return fmt.Errorf("bench: sweep model has no layer %s", l)
		}
		v["core.decrypt_ms."+l] = d
		v["nn.plain_ms."+l] = f
	}

	c, err := aes.New(key)
	if err != nil {
		return err
	}
	ctr := aes.NewCTR(c)
	buf := make([]byte, 4<<20)
	d := m.median(root, "aes.ctr", func() { ctr.XORKeyStreamLines(buf, buf, 0, 1, core.LineBytes) })
	v["aes.ctr_gbps"] = float64(len(buf)) / (d / 1e3) / 1e9

	return simProbe(m, root, v)
}

// simProbe builds the traces of the grid's first cell and simulates its
// three schemes one by one, checking each IPC against the golden.
func simProbe(m meter, parent int64, v map[string]float64) error {
	g := defaultGrid()
	cell := g.golden[0]
	var (
		layout *core.Layout
		traces []trace.LayerTrace
		err    error
	)
	v["trace.build_ms"] = m.median(parent, "trace.build", func() {
		layout, traces, err = buildTraces(g.cfg, cell.Arch, cell.Ratio)
	})
	if err != nil {
		return err
	}
	for i, s := range schemes {
		mode, fn := gpu.ModeDirect, gpu.EncFn(nil)
		switch s {
		case "baseline":
			mode = gpu.ModeNone
		case "seal":
			fn = layout.Protected
		}
		cfg := gpu.ConfigGTX480()
		cfg.EngineSpec.ThroughputGBs *= float64(cell.Engines)
		cfg.L2Slice.SizeBytes = cell.L2KB * 1024
		sim, err := gpu.New(cfg.WithMode(mode, fn))
		if err != nil {
			return err
		}
		var total gpu.Result
		d := m.time(parent, "gpu.run."+s, func() { _, total, err = trace.RunNetwork(sim, traces) })
		if err != nil {
			return err
		}
		if want := cell.ipcs()[i]; total.IPC != want {
			return fmt.Errorf("bench: %s cell %s IPC %v, golden %v", s, cell.key(), total.IPC, want)
		}
		v["gpu.cycles."+s] = total.Cycles
		v["gpu.host_ns_per_memreq."+s] = d * 1e6 / float64(total.MemRequests)
	}
	return nil
}

// buildTraces plans, lays out and traces one grid group the way
// exp.Grid does (synthetic row norms from cfg.Seed, the paper's
// boundary rules), so its traces and IPCs match the grid's cells.
func buildTraces(cfg exp.TimingConfig, archName string, ratio float64) (*core.Layout, []trace.LayerTrace, error) {
	arch, err := models.ArchByName(archName)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Scale != 1 {
		arch = arch.Scale(cfg.Scale, 0)
	}
	rng := prng.New(cfg.Seed)
	var specs []models.LayerSpec
	var norms [][]float64
	for _, s := range arch.Specs {
		if s.Kind != models.KindConv && s.Kind != models.KindFC {
			continue
		}
		specs = append(specs, s)
		n := make([]float64, s.InC)
		for i := range n {
			n[i] = rng.Float64()
		}
		norms = append(norms, n)
	}
	opts := core.DefaultOptions()
	opts.Ratio = ratio
	plan, err := core.NewPlanFromNorms(arch, specs, norms, opts)
	if err != nil {
		return nil, nil, err
	}
	layout, err := core.NewLayout(plan, cfg.Batch)
	if err != nil {
		return nil, nil, err
	}
	p := cfg.Trace
	p.Batch = cfg.Batch
	traces, err := trace.Network(p, plan, layout)
	return layout, traces, err
}
