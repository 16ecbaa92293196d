package bench

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seal"
	"seal/internal/models"
	"seal/internal/nn"
	"seal/internal/prng"
	"seal/internal/serve"
	"seal/internal/tensor"
)

// maxBatch is the gateway's dynamic batch cap in every serving workload.
const maxBatch = 8

// coldStarts is how many times a run sets the gateway up; setup_s is
// their median and the last one serves the measured passes.
const coldStarts = 5

// grace is how long a request may outlive its phase before it counts
// as stranded.
const grace = 5 * time.Second

// pollEvery is the traced run's Registry().Stats() polling period.
const pollEvery = 20 * time.Millisecond

// lowShare is the fraction of a pass spent in phase low; phase over
// takes the rest.
const lowShare = 0.7

// modelDef is one model a serving workload hosts.
type modelDef struct {
	tenant, name string
	spec         serve.ModelSpec
}

// servingWorkload is an open-loop traffic mix against the gateway.
type servingWorkload struct {
	models    []modelDef
	jsonFrac  float64 // share of requests with JSON bodies; the rest are raw f32
	lowQPS    float64
	overQPS   float64
	swapEvery time.Duration // 0: no hot swaps
	swapSeeds []uint64      // models[0]'s seed per generation, cycled
}

func servingWorkloads() map[string]servingWorkload {
	half := 0.5
	return map[string]servingWorkload{
		// One big model and raw bodies: the engine's CTR decrypt and GEMM
		// do almost all the work, the gateway almost none.
		"serve-engine": {
			models: []modelDef{{"acme", "vgg16", serve.ModelSpec{Arch: "vgg16", Scale: 0.25, Ratio: &half, Seed: 42}}},
			lowQPS: 6, overQPS: 200,
		},
		// A small model at high rates, two tenants under their own keys
		// and a quarter JSON bodies: HTTP, decoding, admission and
		// batching are the largest share of the work.
		"serve-gateway": {
			models: []modelDef{
				{"alpha", "vgg16", serve.ModelSpec{Arch: "vgg16", Scale: 0.0625, Ratio: &half, Seed: 42}},
				{"beta", "vgg16", serve.ModelSpec{Arch: "vgg16", Scale: 0.0625, Ratio: &half, Seed: 43}},
			},
			jsonFrac: 0.25, lowQPS: 60, overQPS: 1000,
		},
		// Writes beside reads: an int8 residual model hot-swapped every
		// four seconds under live traffic.
		"serve-swap": {
			models: []modelDef{{"acme", "resnet18", serve.ModelSpec{Arch: "resnet18", Scale: 0.25, Ratio: &half, Seed: 42, Int8: true}}},
			lowQPS: 10, overQPS: 200,
			swapEvery: 4 * time.Second, swapSeeds: []uint64{42, 43},
		},
	}
}

func (w servingWorkload) phases(total float64) []phase {
	return []phase{
		{name: "low", qps: w.lowQPS, seconds: total * lowShare},
		{name: "over", qps: w.overQPS, seconds: total * (1 - lowShare), shed: true},
	}
}

// target is one hosted model with its request bodies and the logits it
// must return for each sample under each generation's seed.
type target struct {
	path    string
	raw     [][]byte      // raw-f32 request bodies, per sample
	json    [][]byte      // JSON request bodies, per sample
	seeds   []uint64      // generation g serves seeds[(g-1)%len(seeds)]
	want    [][][]float32 // [seed index][sample] logits row
	wantRaw [][][]byte    // want, as raw-f32 response bodies
}

// makeSamples draws the pool of distinct input samples.
func makeSamples(seed uint64, n int) [][]float32 {
	rng := prng.New(seed).Fork()
	out := make([][]float32, samplePool)
	for i := range out {
		out[i] = make([]float32, n)
		for j := range out[i] {
			out[i][j] = float32(rng.NormFloat64())
		}
	}
	return out
}

func archFor(spec serve.ModelSpec) (*seal.Arch, error) {
	arch, err := seal.ArchByName(spec.Arch)
	if err != nil {
		return nil, err
	}
	if spec.Scale != 0 && spec.Scale != 1 {
		arch = arch.Scale(spec.Scale, 0)
	}
	return arch, nil
}

// referenceRows runs the local plaintext forward — the quantized one
// for int8 models — over every sample, in batches of maxBatch.
func referenceRows(spec serve.ModelSpec, samples [][]float32) ([][]float32, error) {
	arch, err := archFor(spec)
	if err != nil {
		return nil, err
	}
	m, err := models.Build(arch, prng.New(spec.Seed))
	if err != nil {
		return nil, err
	}
	if spec.Int8 {
		nn.EnableInt8(m.Net)
	}
	per := len(samples[0])
	rows := make([][]float32, 0, len(samples))
	for lo := 0; lo < len(samples); lo += maxBatch {
		hi := min(lo+maxBatch, len(samples))
		x := tensor.New(hi-lo, arch.InC, arch.InH, arch.InW)
		for i := lo; i < hi; i++ {
			copy(x.Data[(i-lo)*per:], samples[i])
		}
		y := m.Forward(x, false)
		n := len(y.Data) / (hi - lo)
		for i := 0; i < hi-lo; i++ {
			rows = append(rows, append([]float32(nil), y.Data[i*n:(i+1)*n]...))
		}
	}
	return rows, nil
}

func f32Bytes(v []float32) []byte {
	b := make([]byte, len(v)*4)
	for i, f := range v {
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(f))
	}
	return b
}

// targets builds request bodies and expected rows for every model.
func (w servingWorkload) targets(samples [][]float32) ([]*target, error) {
	var out []*target
	for i, m := range w.models {
		t := &target{path: "/v1/tenants/" + m.tenant + "/models/" + m.name + "/infer", seeds: []uint64{m.spec.Seed}}
		if i == 0 && w.swapEvery > 0 {
			t.seeds = w.swapSeeds
		}
		for _, s := range samples {
			t.raw = append(t.raw, f32Bytes(s))
			in := make([]float64, len(s))
			for j, v := range s {
				in[j] = float64(v)
			}
			body, err := json.Marshal(serve.InferRequest{Input: in})
			if err != nil {
				return nil, err
			}
			t.json = append(t.json, body)
		}
		for _, seed := range t.seeds {
			spec := m.spec
			spec.Seed = seed
			rows, err := referenceRows(spec, samples)
			if err != nil {
				return nil, err
			}
			raws := make([][]byte, len(rows))
			for j, r := range rows {
				raws[j] = f32Bytes(r)
			}
			t.want = append(t.want, rows)
			t.wantRaw = append(t.wantRaw, raws)
		}
		out = append(out, t)
	}
	return out, nil
}

// check reports whether a 200 response carries the expected row of
// sample s for the generation that served it.
func (t *target) check(s int, asJSON bool, genHeader string, body []byte) bool {
	if asJSON {
		var r serve.InferResponse
		if err := json.Unmarshal(body, &r); err != nil || r.Gen < 1 {
			return false
		}
		want := t.want[(r.Gen-1)%int64(len(t.seeds))][s]
		if len(r.Logits) != len(want) {
			return false
		}
		for i, v := range r.Logits {
			if math.Float32bits(float32(v)) != math.Float32bits(want[i]) || float64(float32(v)) != v {
				return false
			}
		}
		return true
	}
	gen, err := strconv.ParseInt(genHeader, 10, 64)
	if err != nil || gen < 1 {
		return false
	}
	return bytes.Equal(body, t.wantRaw[(gen-1)%int64(len(t.seeds))][s])
}

// gateway is one in-process serving stack behind an HTTP/2 TLS listener,
// with the single client connection the load generator uses.
type gateway struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	conns  atomic.Int64 // connections the listener accepted
	gens   int          // installs of models[0] so far
	closed bool
}

// startGateway is one cold start: a fresh gateway and listener, a PUT of
// every model, and the first correct 200.
func startGateway(w servingWorkload, key seal.Key, targets []*target) (*gateway, error) {
	g := &gateway{srv: serve.New(serve.Config{MasterKey: key, MaxBatch: maxBatch})}
	g.ts = httptest.NewUnstartedServer(g.srv.Handler())
	g.ts.EnableHTTP2 = true
	g.ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			g.conns.Add(1)
		}
	}
	g.ts.StartTLS()
	g.client = g.ts.Client()
	for i, m := range w.models {
		seed := m.spec.Seed
		if i == 0 && w.swapEvery > 0 {
			seed = w.swapSeeds[0]
		}
		if err := g.put(m, seed); err != nil {
			g.close()
			return nil, err
		}
	}
	g.gens = 1
	status, hdr, body, err := g.post(context.Background(), targets[0], 0, false)
	if err == nil && (status != http.StatusOK || !targets[0].check(0, false, hdr, body)) {
		err = fmt.Errorf("bench: first request: status %d or wrong logits", status)
	}
	if err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

func (g *gateway) close() {
	if g.closed {
		return
	}
	g.closed = true
	g.ts.Close()
	g.srv.Close()
}

// put registers (or hot-swaps) a model at the given seed through the API.
func (g *gateway) put(m modelDef, seed uint64) error {
	spec := m.spec
	spec.Seed = seed
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, g.ts.URL+"/v1/tenants/"+m.tenant+"/models/"+m.name, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return fmt.Errorf("bench: put %s/%s: %w", m.tenant, m.name, err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // the status is the result
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: put %s/%s: status %d", m.tenant, m.name, resp.StatusCode)
	}
	return nil
}

// post sends sample s to t and returns the status, the generation
// header and the whole body.
func (g *gateway) post(ctx context.Context, t *target, s int, asJSON bool) (int, string, []byte, error) {
	body, ct := t.raw[s], serve.ContentTypeF32
	if asJSON {
		body, ct = t.json[s], "application/json"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.ts.URL+t.path, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", ct)
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Seal-Gen"), b, err
}

// healthzP50 times n sequential GET /healthz on the load connection and
// returns the median in nominal ms.
func (g *gateway) healthzP50(m meter, n int) (float64, error) {
	lat := make([]float64, 0, n)
	var err error
	for i := 0; i < n && err == nil; i++ {
		lat = append(lat, m.time(0, "transport.healthz", func() {
			resp, gerr := g.client.Get(g.ts.URL + "/healthz")
			if gerr != nil {
				err = gerr
				return
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("bench: healthz: status %d", resp.StatusCode)
			}
		}))
	}
	return median(lat), err
}

// counters sums the serving counters of every hosted model.
type counters struct {
	items, batches       int64
	queue, busy, workers int64
}

func (g *gateway) counters() counters {
	var c counters
	for _, st := range g.srv.Registry().Stats() {
		c.items += st.Items
		c.batches += st.Batches
		c.queue += int64(st.QueueLen)
		c.busy += st.BusyEngines
		c.workers += int64(st.Workers)
	}
	return c
}

// watch is the pass's view of the gateway's own counters: a snapshot at
// each phase boundary and, when traced, polled queue length and busy
// engines per phase.
type watch struct {
	snaps                []counters // len(phases)+1: phase starts, then the end
	queue, busy, workers []float64  // per-phase sums over polls
	polls                []int
}

// watchGateway runs until stop closes, then takes the final snapshot.
func (g *gateway) watchGateway(start time.Time, phases []phase, traced bool, stop <-chan struct{}) *watch {
	w := &watch{
		queue: make([]float64, len(phases)), busy: make([]float64, len(phases)),
		workers: make([]float64, len(phases)), polls: make([]int, len(phases)),
	}
	var bounds []time.Time
	at := start
	for _, ph := range phases {
		bounds = append(bounds, at)
		at = at.Add(seconds(ph.seconds))
	}
	var tick <-chan time.Time
	if traced {
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		tick = t.C
	}
	boundary := time.NewTimer(time.Until(bounds[0]))
	defer boundary.Stop()
	next := 0
	for {
		select {
		case <-boundary.C:
			w.snaps = append(w.snaps, g.counters())
			if next++; next < len(bounds) {
				boundary.Reset(time.Until(bounds[next]))
			}
		case now := <-tick:
			if now.Before(bounds[0]) || !now.Before(at) {
				continue
			}
			i := 0
			for i+1 < len(bounds) && !now.Before(bounds[i+1]) {
				i++
			}
			c := g.counters()
			w.queue[i] += float64(c.queue)
			w.busy[i] += float64(c.busy)
			w.workers[i] += float64(c.workers)
			w.polls[i]++
		case <-stop:
			for len(w.snaps) < len(bounds) {
				w.snaps = append(w.snaps, g.counters())
			}
			w.snaps = append(w.snaps, g.counters())
			return w
		}
	}
}

// outcome is one request's result.
type outcome struct {
	sched, done time.Time
	status      int
	err         bool
	wrong       bool
	dropped     bool // never sent: held past its phase's end
}

// pass is one open-loop run of the workload's phases.
type pass struct {
	phases []PhaseReport
	lowMS  []float64 // nominal latency of correct 200s scheduled in phase low
	lowRaw []float64 // the same, as measured
	overOK float64   // correct phase-over completions inside the phase, each host-speed weighted
	gen    genStats
	swapMS []float64 // nominal
	watch  *watch
	conns  int64 // connections the gateway's listener has accepted
}

func (p *pass) tally() (attempted, failed, wrong int64) {
	for _, ph := range p.phases {
		attempted += ph.Attempted
		failed += ph.Failed
		wrong += ph.Wrong
	}
	return
}

// goodput is the correct phase-over completions per nominal second.
func (p *pass) goodput() float64 { return p.overOK / p.phases[1].Seconds }

// runPass drives one pass: the scheduled arrivals, the hot-swap PUTs,
// and the counter watch. m.rec is nil for an untraced pass.
func (g *gateway) runPass(w servingWorkload, targets []*target, phases []phase, arrivals []arrival, m meter) *pass {
	rec := m.rec
	p := &pass{}
	start := time.Now().Add(10 * time.Millisecond)
	var starts, ends []time.Time
	at := start
	for _, ph := range phases {
		starts = append(starts, at)
		at = at.Add(seconds(ph.seconds))
		ends = append(ends, at)
	}
	stop := make(chan struct{})
	watched := make(chan *watch, 1)
	go func() { watched <- g.watchGateway(start, phases, rec != nil, stop) }()

	swap := PhaseReport{Name: "swap"}
	var swapWG sync.WaitGroup
	if w.swapEvery > 0 {
		swapWG.Add(1)
		go func() {
			defer swapWG.Done()
			for k := 1; start.Add(time.Duration(k) * w.swapEvery).Before(at); k++ {
				time.Sleep(time.Until(start.Add(time.Duration(k) * w.swapEvery)))
				seed := w.swapSeeds[g.gens%len(w.swapSeeds)]
				// Each swap starts from a collected heap, so that the
				// peak RSS is the two deployments' and not the
				// collector's timing.
				runtime.GC()
				var err error
				d := m.time(0, "serve.swap", func() { err = g.put(w.models[0], seed) })
				swap.Attempted++
				if err != nil {
					swap.Failed++
					continue
				}
				g.gens++
				swap.OK++
				p.swapMS = append(p.swapMS, d)
			}
		}()
	}

	outs := make([]outcome, len(arrivals))
	p.gen = openLoop(start, arrivals, func(i int, sched time.Time) {
		a := arrivals[i]
		o := &outs[i]
		o.sched = sched
		if phases[a.phase].shed && time.Now().After(ends[a.phase]) {
			// Held by the in-flight cap until its phase was over: load
			// the system could not take in, shed by the generator.
			o.dropped = true
			return
		}
		t := targets[a.model]
		ctx, cancel := context.WithDeadline(context.Background(), ends[a.phase].Add(grace))
		defer cancel()
		req := int64(i + 1)
		root := rec.NewID()
		sent := time.Now()
		rec.Record(rec.NewID(), root, req, "gen.hold", sched, sent)
		status, hdr, body, err := g.post(ctx, t, a.sample, a.json)
		o.done = time.Now()
		rec.Record(rec.NewID(), root, req, "http.roundtrip", sent, o.done)
		rec.Record(root, 0, req, "request", sched, o.done)
		o.status, o.err = status, err != nil
		if err == nil && status == http.StatusOK {
			o.wrong = !t.check(a.sample, a.json, hdr, body)
		}
	})
	swapWG.Wait()
	close(stop)
	p.watch = <-watched
	p.conns = g.conns.Load()

	p.phases = make([]PhaseReport, len(phases))
	late := make([][]float64, len(phases))
	for i, o := range outs {
		a := arrivals[i]
		late[a.phase] = append(late[a.phase], p.gen.lateMS[i])
		r := &p.phases[a.phase]
		r.Attempted++
		switch {
		case o.dropped:
			r.Dropped++
		case o.err:
			r.Failed++
		case o.status == http.StatusOK && o.wrong:
			r.Failed++
			r.Wrong++
		case o.status == http.StatusOK:
			r.OK++
			if o.done.Before(ends[a.phase]) {
				r.Delivered++
			}
			switch {
			case a.phase == 0:
				p.lowMS = append(p.lowMS, m.speed.norm(o.sched, o.done))
				p.lowRaw = append(p.lowRaw, ms(o.done.Sub(o.sched)))
			case o.done.Before(ends[a.phase]):
				// Weighted by the host speed around it, so that a slow
				// spell does not count as lost throughput.
				p.overOK += 1 / m.speed.scale(o.done, o.done)
			}
		case o.status == http.StatusTooManyRequests && phases[a.phase].shed:
			r.Shed++
		default:
			r.Failed++
		}
	}
	for i, ph := range phases {
		r := &p.phases[i]
		r.Name, r.OfferedQPS, r.Seconds, r.LateP99MS = ph.name, ph.qps, ph.seconds, quantile(late[i], 0.99)
	}
	if swap.Attempted > 0 {
		p.phases = append(p.phases, swap)
	}
	return p
}

// avgBatch is the mean dynamic batch width over phase i.
func (w *watch) avgBatch(i int) float64 {
	db := w.snaps[i+1].batches - w.snaps[i].batches
	if db == 0 {
		return 0
	}
	return float64(w.snaps[i+1].items-w.snaps[i].items) / float64(db)
}

// runServing runs one serving workload: set-up, the untraced pass, and
// for a traced run a second, traced pass and the layer probes.
func runServing(w servingWorkload, cfg Config, out *Outcome) error {
	arch, err := archFor(w.models[0].spec)
	if err != nil {
		return err
	}
	samples := makeSamples(cfg.Seed, arch.InC*arch.InH*arch.InW)
	targets, err := w.targets(samples)
	if err != nil {
		return err
	}
	key := seal.KeyFromString("sealbench")
	var g *gateway
	for i := 0; i < coldStarts; i++ {
		if g != nil {
			g.close()
		}
		// Start each cold start from a collected heap, so the peak RSS
		// does not depend on when the collector last ran.
		runtime.GC()
		t0 := time.Now()
		if g, err = startGateway(w, key, targets); err != nil {
			return err
		}
		out.setup(t0, time.Now())
	}
	defer g.close()

	phases := w.phases(cfg.Seconds)
	arrivals := schedule(cfg.Seed, phases, len(w.models), w.jsonFrac)
	plain := g.runPass(w, targets, phases, arrivals, meter{speed: out.speed})
	passes := []*pass{plain}
	v := out.values
	if !cfg.Trace {
		v["p50_ms"] = median(plain.lowMS)
		v["goodput_per_s"] = plain.goodput()
	} else {
		m := out.meter()
		traced := g.runPass(w, targets, phases, arrivals, m)
		passes = append(passes, traced)
		hz, err := g.healthzP50(m, 1000)
		if err != nil {
			return err
		}
		g.close()
		if err := secureProbe(m, w.models[0].spec, samples, v); err != nil {
			return err
		}
		if err := layerSweep(m, v); err != nil {
			return err
		}
		tw := traced.watch
		v["gen.late_p99_ms"] = traced.phases[0].LateP99MS
		v["gen.conns"] = float64(traced.conns)
		v["gen.inflight_max"] = float64(traced.gen.inflightMax)
		v["transport.healthz_p50_us"] = hz * 1e3
		v["serve.avg_batch_low"] = tw.avgBatch(0)
		v["serve.avg_batch_over"] = tw.avgBatch(1)
		v["serve.busy_frac"] = ratio(tw.busy[1], tw.workers[1])
		v["serve.shed_frac"] = ratio(float64(traced.phases[1].Shed+traced.phases[1].Dropped), float64(traced.phases[1].Attempted))
		lowRate := float64(traced.phases[0].Attempted-traced.phases[0].Shed) / phases[0].seconds
		v["serve.queue_wait_ms"] = 1e3 * ratio(ratio(tw.queue[0], float64(tw.polls[0])), lowRate)
		v["serve.roofline_frac"] = ratio(traced.goodput(), v["secure.batch_qps"])
		v["serve.swap_p50_ms"] = median(traced.swapMS)
		v["bench.trace_overhead_frac"] = ratio(median(traced.lowMS), median(plain.lowMS)) - 1
	}

	for i, p := range passes {
		a, f, wrong := p.tally()
		out.Result.Attempted += a
		out.Result.Failed += f
		if wrong > 0 {
			out.Result.Correct = false
		}
		pr := PassReport{Traced: i == 1, Phases: p.phases,
			CapHolds: p.gen.capHolds, InflightMax: p.gen.inflightMax, Conns: p.conns,
			Latency: latencyReport(p.lowMS, p.lowRaw), SwapMS: latencyReport(p.swapMS, nil)}
		if p.watch != nil {
			pr.AvgBatch = []float64{p.watch.avgBatch(0), p.watch.avgBatch(1)}
		}
		out.Report.Passes = append(out.Report.Passes, pr)
		if p.conns > int64(runtime.NumCPU()) {
			return fmt.Errorf("bench: load guard: %d connections opened, nproc %d", p.conns, runtime.NumCPU())
		}
		if late, limit := p.phases[0].LateP99MS, 500/phases[0].qps; late > limit {
			out.Report.invalid(fmt.Sprintf("pass %d: generator p99 lateness %.2f ms in phase low, over half the mean arrival gap (%.2f ms)", i, late, limit))
		}
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
