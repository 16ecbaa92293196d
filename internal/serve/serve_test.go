package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seal"
	"seal/internal/parallel"
	"seal/internal/prng"
)

const (
	testArch  = "vgg16"
	testScale = 0.0625
)

var testMaster = seal.KeyFromString("gateway test master key")

func testSpec(seed uint64) ModelSpec {
	return ModelSpec{Arch: testArch, Scale: testScale, Seed: seed}
}

// expectedLogits runs the plaintext forward for one sample locally —
// the ground truth every served response must match bit for bit.
func expectedLogits(t *testing.T, seed uint64, input []float32) []float32 {
	t.Helper()
	arch, err := seal.ArchByName(testArch)
	if err != nil {
		t.Fatal(err)
	}
	arch = arch.Scale(testScale, 0)
	m, err := seal.BuildModel(arch, seed)
	if err != nil {
		t.Fatal(err)
	}
	x := seal.NewTensor(1, arch.InC, arch.InH, arch.InW)
	copy(x.Data, input)
	out := m.Forward(x, false)
	cp := make([]float32, len(out.Data))
	copy(cp, out.Data)
	return cp
}

func sampleInput(t *testing.T, seed uint64) []float32 {
	t.Helper()
	arch, err := seal.ArchByName(testArch)
	if err != nil {
		t.Fatal(err)
	}
	arch = arch.Scale(testScale, 0)
	rng := prng.New(seed)
	in := make([]float32, arch.InC*arch.InH*arch.InW)
	for i := range in {
		in[i] = float32(rng.NormFloat64())
	}
	return in
}

func newGateway(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.MasterKey = testMaster
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func register(t *testing.T, ts *httptest.Server, tenant, model string, spec ModelSpec) RegisterInfo {
	t.Helper()
	info, code := tryRegister(t, ts, tenant, model, spec)
	if code != http.StatusOK {
		t.Fatalf("register %s/%s: status %d", tenant, model, code)
	}
	return info
}

func tryRegister(t *testing.T, ts *httptest.Server, tenant, model string, spec ModelSpec) (RegisterInfo, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	req, err := http.NewRequest(http.MethodPut,
		fmt.Sprintf("%s/v1/tenants/%s/models/%s", ts.URL, tenant, model), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info RegisterInfo
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
	}
	return info, resp.StatusCode
}

func rawBytes(input []float32) []byte {
	raw := make([]byte, len(input)*4)
	for i, v := range input {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(v))
	}
	return raw
}

func rawFloats(raw []byte) []float32 {
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out
}

// infer posts one sample (raw encoding) and returns the decoded
// response plus status code; resp is valid only for status 200.
func infer(ts *httptest.Server, tenant, model string, input []float32) (InferResponse, *http.Response, error) {
	body, _ := json.Marshal(InferRequest{Raw: rawBytes(input)})
	resp, err := ts.Client().Post(
		fmt.Sprintf("%s/v1/tenants/%s/models/%s/infer", ts.URL, tenant, model),
		"application/json", bytes.NewReader(body))
	if err != nil {
		return InferResponse{}, nil, err
	}
	defer resp.Body.Close()
	var out InferResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return InferResponse{}, resp, err
		}
	}
	return out, resp, nil
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestInferMatchesPlaintextBothEncodings(t *testing.T) {
	_, ts := newGateway(t, Config{Workers: 1})
	info := register(t, ts, "alpha", "main", testSpec(3))
	if info.Gen != 1 || info.Classes == 0 || info.WeightEncFraction <= 0 {
		t.Fatalf("odd register info: %+v", info)
	}
	input := sampleInput(t, 11)
	want := expectedLogits(t, 3, input)

	// Raw (base64 float32) round-trip.
	res, resp, err := infer(ts, "alpha", "main", input)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: %v status %v", err, resp.StatusCode)
	}
	if !bitsEqual(rawFloats(res.Raw), want) {
		t.Fatal("raw-encoded logits not bit-identical to plaintext forward")
	}
	if res.Gen != 1 || res.Batch < 1 {
		t.Fatalf("odd response meta: %+v", res)
	}

	// JSON number array round-trip (float32 → float64 → JSON → back is
	// exact).
	arr := make([]float64, len(input))
	for i, v := range input {
		arr[i] = float64(v)
	}
	body, _ := json.Marshal(InferRequest{Input: arr})
	httpResp, err := ts.Client().Post(ts.URL+"/v1/tenants/alpha/models/main/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var jres InferResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&jres); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, len(jres.Logits))
	for i, v := range jres.Logits {
		got[i] = float32(v)
	}
	if !bitsEqual(got, want) {
		t.Fatal("JSON-encoded logits not bit-identical to plaintext forward")
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	_, ts := newGateway(t, Config{Workers: 1})
	// Unknown model → 404 (seal.ErrModelNotFound).
	_, resp, err := infer(ts, "nobody", "ghost", []float32{1})
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing model: %v status %v, want 404", err, resp.StatusCode)
	}
	// Unknown arch → 400 (seal.ErrUnknownArch).
	if _, code := tryRegister(t, ts, "a", "m", ModelSpec{Arch: "lenet"}); code != http.StatusBadRequest {
		t.Fatalf("unknown arch: status %d, want 400", code)
	}
	// Wrong input length → 400 (ErrBadInput).
	register(t, ts, "a", "m", testSpec(1))
	_, resp, err = infer(ts, "a", "m", []float32{1, 2, 3})
	if err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short input: %v status %v, want 400", err, resp.StatusCode)
	}
	// Unregister → subsequent lookups 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/tenants/a/models/m", nil)
	dresp, err := ts.Client().Do(req)
	if err != nil || dresp.StatusCode != http.StatusOK {
		t.Fatalf("unregister: %v status %v", err, dresp.StatusCode)
	}
	dresp.Body.Close()
	_, resp, err = infer(ts, "a", "m", sampleInput(t, 1))
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("after unregister: %v status %v, want 404", err, resp.StatusCode)
	}
}

// TestRegistrySentinelErrors pins the errors.Is contract the HTTP layer
// depends on.
func TestRegistrySentinelErrors(t *testing.T) {
	reg := NewRegistry(Config{MasterKey: testMaster}.withDefaults())
	defer reg.Close()
	if _, err := reg.Register("t", "m", ModelSpec{Arch: "nope"}); !errors.Is(err, seal.ErrUnknownArch) {
		t.Fatalf("register unknown arch: %v, want ErrUnknownArch", err)
	}
	if _, err := reg.lookup("t", "m"); !errors.Is(err, seal.ErrModelNotFound) {
		t.Fatalf("lookup missing: %v, want ErrModelNotFound", err)
	}
	if err := reg.Unregister("t", "m"); !errors.Is(err, seal.ErrModelNotFound) {
		t.Fatalf("unregister missing: %v, want ErrModelNotFound", err)
	}
	bad := 1.5
	if _, err := reg.Register("t", "m", ModelSpec{Arch: testArch, Scale: testScale, Ratio: &bad}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad ratio: %v, want ErrBadInput", err)
	}
	if _, err := reg.Register("t", "m", ModelSpec{Arch: testArch, Scale: testScale, PanelBytes: -4096}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative panel_bytes: %v, want ErrBadInput", err)
	}
}

// TestInt8ModelServing registers a quantized deployment and checks the
// served logits are bit-identical to the quantized eval forward — the
// int8 analogue of the float gateway's plaintext-forward contract.
func TestInt8ModelServing(t *testing.T) {
	_, ts := newGateway(t, Config{Workers: 2})
	spec := testSpec(9)
	spec.Int8 = true
	info := register(t, ts, "alpha", "q", spec)
	if !info.Int8 {
		t.Fatalf("register info does not report int8: %+v", info)
	}

	arch, err := seal.ArchByName(testArch)
	if err != nil {
		t.Fatal(err)
	}
	arch = arch.Scale(testScale, 0)
	p, err := seal.Prepare(arch, 9, seal.WithInt8())
	if err != nil {
		t.Fatal(err)
	}
	input := sampleInput(t, 13)
	x := seal.NewTensor(1, arch.InC, arch.InH, arch.InW)
	copy(x.Data, input)
	ref := p.Model().Forward(x, false)
	want := make([]float32, len(ref.Data))
	copy(want, ref.Data)

	res, resp, err := infer(ts, "alpha", "q", input)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: %v status %v", err, resp.StatusCode)
	}
	if !bitsEqual(rawFloats(res.Raw), want) {
		t.Fatal("served int8 logits not bit-identical to the quantized eval forward")
	}
}

// TestDynamicBatching fires concurrent requests into a single-worker
// model with a wide batch window and asserts they shared a forward
// pass — and that batching never costs bit-identity.
func TestDynamicBatching(t *testing.T) {
	_, ts := newGateway(t, Config{Workers: 1, MaxBatch: 8, BatchWindow: 150 * time.Millisecond, QueueDepth: 32})
	register(t, ts, "alpha", "batched", testSpec(5))
	input := sampleInput(t, 7)
	want := expectedLogits(t, 5, input)

	// Warm the engine so the batched burst measures steady state.
	if _, resp, err := infer(ts, "alpha", "batched", input); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: %v %v", err, resp)
	}

	const n = 6
	var wg sync.WaitGroup
	var maxBatch atomic.Int64
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, resp, err := infer(ts, "alpha", "batched", input)
			if err != nil || resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("infer: %v status %+v", err, resp.StatusCode)
				return
			}
			if !bitsEqual(rawFloats(res.Raw), want) {
				errs <- fmt.Errorf("batched logits diverged")
				return
			}
			for {
				cur := maxBatch.Load()
				if int64(res.Batch) <= cur || maxBatch.CompareAndSwap(cur, int64(res.Batch)) {
					break
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if maxBatch.Load() < 2 {
		t.Fatalf("no dynamic batching observed (max batch %d)", maxBatch.Load())
	}
}

// TestBackpressure429 floods a depth-1 queue and requires the gateway
// to shed load with 429 + Retry-After instead of queueing unboundedly.
func TestBackpressure429(t *testing.T) {
	s, ts := newGateway(t, Config{Workers: 1, MaxBatch: 1, QueueDepth: 1, BatchWindow: 0})
	register(t, ts, "alpha", "tiny", testSpec(2))
	input := sampleInput(t, 3)
	want := expectedLogits(t, 2, input)

	var rejected, served atomic.Int64
	for round := 0; round < 3 && rejected.Load() == 0; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, resp, err := infer(ts, "alpha", "tiny", input)
				if err != nil {
					errs <- err
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					served.Add(1)
					if !bitsEqual(rawFloats(res.Raw), want) {
						errs <- fmt.Errorf("logits diverged under load")
					}
				case http.StatusTooManyRequests:
					rejected.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						errs <- fmt.Errorf("429 without Retry-After")
					}
				default:
					errs <- fmt.Errorf("unexpected status %d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	if rejected.Load() == 0 {
		t.Fatal("no 429 observed while flooding a depth-1 queue")
	}
	if served.Load() == 0 {
		t.Fatal("nothing served while flooding")
	}
	stats := s.Registry().Stats()
	if len(stats) != 1 || stats[0].Rejected == 0 {
		t.Fatalf("stats do not record rejections: %+v", stats)
	}
}

// TestHotSwapUnderLoad re-registers a model while clients hammer it:
// every successful response must be bit-identical to one of the two
// deployments' plaintext forwards, nothing may error, and once the
// swap returns, new requests must be served by the new generation.
func TestHotSwapUnderLoad(t *testing.T) {
	s, ts := newGateway(t, Config{Workers: 2, MaxBatch: 4, BatchWindow: time.Millisecond, QueueDepth: 64})
	register(t, ts, "alpha", "hot", testSpec(1))
	input := sampleInput(t, 9)
	want1 := expectedLogits(t, 1, input)
	want2 := expectedLogits(t, 2, input)

	stop := make(chan struct{})
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	var served atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, resp, err := infer(ts, "alpha", "hot", input)
				if err != nil {
					errs <- err
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					served.Add(1)
					got := rawFloats(res.Raw)
					if !bitsEqual(got, want1) && !bitsEqual(got, want2) {
						errs <- fmt.Errorf("response matches neither deployment (gen %d)", res.Gen)
						return
					}
				case http.StatusTooManyRequests:
					time.Sleep(time.Millisecond)
				default:
					errs <- fmt.Errorf("unexpected status %d during swap", resp.StatusCode)
					return
				}
			}
		}()
	}

	time.Sleep(100 * time.Millisecond)
	info := register(t, ts, "alpha", "hot", testSpec(2)) // hot-swap
	if info.Gen != 2 {
		t.Fatalf("swap gen %d, want 2", info.Gen)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if served.Load() == 0 {
		t.Fatal("no successful responses during swap")
	}

	// The swap has returned: a fresh request must hit generation 2.
	res, resp, err := infer(ts, "alpha", "hot", input)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap infer: %v %v", err, resp.StatusCode)
	}
	if res.Gen != 2 || !bitsEqual(rawFloats(res.Raw), want2) {
		t.Fatalf("post-swap response gen %d not serving the new deployment", res.Gen)
	}
	if st := s.Registry().Stats(); st[0].Swaps != 1 {
		t.Fatalf("stats swaps %d, want 1", st[0].Swaps)
	}
}

// TestSwapHandsOffWorkers pins the hot-swap liveness invariant under
// the per-engine dispatcher structure: after a swap, every worker of the
// old deployment exits (it observed `retired` — with a single engine, a
// missed handoff would leave it squatting forever), and the queue is
// still consumed — by the new generation's workers only.
func TestSwapHandsOffWorkers(t *testing.T) {
	reg := NewRegistry(Config{MasterKey: testMaster, Workers: 1}.withDefaults())
	defer reg.Close()
	if _, err := reg.Register("t", "m", testSpec(1)); err != nil {
		t.Fatal(err)
	}
	h, err := reg.lookup("t", "m")
	if err != nil {
		t.Fatal(err)
	}
	stale := h.dep.Load() // the deployment about to be retired
	if _, err := reg.Register("t", "m", testSpec(2)); err != nil {
		t.Fatal(err)
	}

	// The old deployment's worker must exit without help: it has to
	// notice retirement.
	drained := make(chan struct{})
	go func() { stale.workers.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("old deployment's worker never exited — a retired worker is squatting on its engine")
	}
	select {
	case <-stale.retired:
	default:
		t.Fatal("retired channel not closed on the swapped-out deployment")
	}

	// And the model must still be live, served by generation 2.
	p, err := h.admit(sampleInput(t, 5))
	if err != nil {
		t.Fatalf("post-swap admit: %v", err)
	}
	select {
	case res := <-p.resp:
		if res.err != nil {
			t.Fatalf("post-swap infer: %v", res.err)
		}
		if res.gen != 2 {
			t.Fatalf("post-swap request served by gen %d, want 2", res.gen)
		}
		h.putPending(p)
	case <-time.After(10 * time.Second):
		t.Fatal("post-swap request never served — no live worker on the new deployment")
	}
}

// TestRapidHotSwapNeverWedges hammers install() against dispatch()
// with a single worker. Engines used to be checked out of a shared
// pool: a swap landing between a worker's deployment load and its
// engine acquire let the old pool's background drain win the only
// engine and left the worker blocked on the stale pool forever, so
// every later request 429'd and Close hung. Each worker now starts with
// its own engine slot, so that window is gone; back-to-back swaps under
// continuous load still check that a worker stays live afterwards and
// that Close returns.
func TestRapidHotSwapNeverWedges(t *testing.T) {
	reg := NewRegistry(Config{
		MasterKey: testMaster, Workers: 1, MaxBatch: 2, QueueDepth: 8,
	}.withDefaults())
	if _, err := reg.Register("t", "m", testSpec(1)); err != nil {
		t.Fatal(err)
	}
	h, err := reg.lookup("t", "m")
	if err != nil {
		t.Fatal(err)
	}
	input := sampleInput(t, 21)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p, err := h.admit(input)
				if err != nil {
					continue // full queue — keep the batcher saturated
				}
				<-p.resp
			}
		}()
	}

	for swap := 0; swap < 8; swap++ {
		if _, err := reg.Register("t", "m", testSpec(uint64(1+swap%2))); err != nil {
			t.Fatalf("swap %d: %v", swap, err)
		}
	}
	close(stop)
	wg.Wait()

	// The batcher must still be alive: a fresh request gets served.
	p, err := h.admit(input)
	if err != nil {
		t.Fatalf("post-swap admit: %v", err)
	}
	select {
	case res := <-p.resp:
		if res.err != nil {
			t.Fatalf("post-swap infer: %v", res.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("batcher wedged: post-swap request never served")
	}
	done := make(chan struct{})
	go func() { reg.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("registry Close hung after rapid hot-swaps")
	}
}

// padReuse reports whether two images of one plan share the keystream
// of their first weight block: layer 0 is a boundary layer, fully
// encrypted by the default plan, and the check is ct₁⊕ct₂ = pt₁⊕pt₂ on
// its first bus line, which is what a snooper who captures both images
// learns when they were sealed under one key.
func padReuse(t *testing.T, a, b *seal.MemoryImage) bool {
	t.Helper()
	name := a.Layout.Plan.Layers[0].Name
	ra, rb := a.Layout.Region("w:"+name), b.Layout.Region("w:"+name)
	if ra == nil || rb == nil || !ra.Encrypted(0) || !rb.Encrypted(0) || ra.Base != rb.Base {
		t.Fatal("expected an encrypted boundary weights region at one address")
	}
	ctA := append([]byte(nil), a.Snoop(ra.Base)...)
	ctB := append([]byte(nil), b.Snoop(rb.Base)...)
	ptA, ptB := make([]byte, ra.BlockBytes), make([]byte, rb.BlockBytes)
	if _, err := a.DecryptRangeInto(ra, 0, ptA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DecryptRangeInto(rb, 0, ptB); err != nil {
		t.Fatal(err)
	}
	for i := range ctA {
		if ctA[i]^ctB[i] != ptA[i]^ptB[i] {
			return false
		}
	}
	return true
}

// hostedImage returns the sealed image of a hosted model's current
// deployment.
func hostedImage(t *testing.T, s *Server, tenant, model string) *seal.MemoryImage {
	t.Helper()
	h, err := s.Registry().lookup(tenant, model)
	if err != nil {
		t.Fatal(err)
	}
	return h.dep.Load().prep.Image()
}

// TestTenantKeyIsolation registers the same spec for two tenants: both
// serve the plaintext logits bit for bit from the same weights, but the
// two images share no keystream.
func TestTenantKeyIsolation(t *testing.T) {
	s, ts := newGateway(t, Config{Workers: 1})
	register(t, ts, "tenant-a", "m", testSpec(4))
	register(t, ts, "tenant-b", "m", testSpec(4))
	input := sampleInput(t, 13)
	want := expectedLogits(t, 4, input)
	for _, tenant := range []string{"tenant-a", "tenant-b"} {
		res, resp, err := infer(ts, tenant, "m", input)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s infer: %v %v", tenant, err, resp.StatusCode)
		}
		if !bitsEqual(rawFloats(res.Raw), want) {
			t.Fatalf("%s logits diverged", tenant)
		}
	}
	if padReuse(t, hostedImage(t, s, "tenant-a", "m"), hostedImage(t, s, "tenant-b", "m")) {
		t.Fatal("two tenants' images share keystream — keys not isolated")
	}
}

// TestGenerationsDoNotSharePads re-registers one spec under one tenant,
// a hot-swap to the next generation: the two images hold the same
// weights, yet must share no keystream, because every deployment is
// sealed under a fresh image key. Under the bare tenant sub-key the
// capture of two generations would give away the XOR of their weights
// (and, under GCM, the authentication key).
func TestGenerationsDoNotSharePads(t *testing.T) {
	s, ts := newGateway(t, Config{Workers: 1})
	register(t, ts, "tenant-a", "m", testSpec(4))
	gen1 := hostedImage(t, s, "tenant-a", "m")
	register(t, ts, "tenant-a", "m", testSpec(4))
	gen2 := hostedImage(t, s, "tenant-a", "m")
	if gen1 == gen2 {
		t.Fatal("hot-swap kept the old image")
	}
	if padReuse(t, gen1, gen2) {
		t.Fatal("two generations of one tenant's model share keystream")
	}
}

// TestTamperedImageFailsClosed flips one stored weight byte of a hosted
// image: /infer must answer 500 with no logits, and /v1/stats must count
// the failed forward in the model's verify_failures.
func TestTamperedImageFailsClosed(t *testing.T) {
	s, ts := newGateway(t, Config{Workers: 1, MaxBatch: 1})
	register(t, ts, "t", "m", testSpec(4))
	input := sampleInput(t, 29)
	if _, resp, err := infer(ts, "t", "m", input); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("infer before tampering: %v %v", err, resp.StatusCode)
	}
	img := hostedImage(t, s, "t", "m")
	r := img.Layout.Region("w:" + img.Layout.Plan.Layers[1].Name)
	if !img.Tamper(r.Base+3, 0x40) {
		t.Fatal("Tamper found no stored byte in a weights region")
	}
	res, resp, err := infer(ts, "t", "m", input)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || res.Raw != nil || res.Logits != nil {
		t.Fatalf("tampered image answered %d with %d raw bytes, %d logits; want 500 and none",
			resp.StatusCode, len(res.Raw), len(res.Logits))
	}
	stats, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	var rows []ModelStats
	if err := json.NewDecoder(stats.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].VerifyFailures != 1 {
		t.Fatalf("stats %+v, want one model with verify_failures 1", rows)
	}
}

// TestShutdownDrains closes the gateway under load: every in-flight
// request resolves (correct logits, 429, 503 or 404 — never a hang,
// never wrong bits), Close returns, and the registry is empty after.
func TestShutdownDrains(t *testing.T) {
	s, ts := newGateway(t, Config{Workers: 2, MaxBatch: 4, BatchWindow: time.Millisecond, QueueDepth: 16})
	register(t, ts, "alpha", "drain", testSpec(6))
	input := sampleInput(t, 17)
	want := expectedLogits(t, 6, input)

	stop := make(chan struct{})
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, resp, err := infer(ts, "alpha", "drain", input)
				if err != nil {
					errs <- err
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					if !bitsEqual(rawFloats(res.Raw), want) {
						errs <- fmt.Errorf("logits diverged during shutdown")
						return
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusNotFound:
					// All fine during/after shutdown.
				default:
					errs <- fmt.Errorf("unexpected status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)

	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not drain within 30s")
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := len(s.Registry().List()); n != 0 {
		t.Fatalf("%d models still listed after Close", n)
	}
	_, resp, err := infer(ts, "alpha", "drain", input)
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("post-close infer: %v status %v, want 404", err, resp.StatusCode)
	}
}

// TestSaturatedQueueWidensBatches pins the whole point of the per-engine
// dispatcher pipeline: with a single engine and a deep standing queue,
// batch formation happens after the capacity wait, so the forward passes
// must run wide — average batch at least MaxBatch/2 over the run, full
// MaxBatch at peak. No timer window is configured: the widening comes
// purely from draining the backlog that accumulates while the engine
// computes.
func TestSaturatedQueueWidensBatches(t *testing.T) {
	reg := NewRegistry(Config{
		MasterKey: testMaster, Workers: 1, MaxBatch: 8, QueueDepth: 64, BatchWindow: 0,
	}.withDefaults())
	defer reg.Close()
	if _, err := reg.Register("t", "m", testSpec(3)); err != nil {
		t.Fatal(err)
	}
	h, err := reg.lookup("t", "m")
	if err != nil {
		t.Fatal(err)
	}
	input := sampleInput(t, 7)
	want := expectedLogits(t, 3, input)

	const n = 64
	pendings := make([]*pending, 0, n)
	for len(pendings) < n {
		p, err := h.admit(input)
		if errors.Is(err, ErrQueueFull) {
			time.Sleep(100 * time.Microsecond) // the engine is draining; re-offer
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
	}
	for i, p := range pendings {
		res := <-p.resp
		if res.err != nil {
			t.Fatalf("request %d: %v", i, res.err)
		}
		if !bitsEqual(res.logits, want) {
			t.Fatalf("request %d: logits diverged under saturation", i)
		}
		h.putPending(p)
	}

	batches, items := h.stats.batches.Load(), h.stats.items.Load()
	if batches == 0 {
		t.Fatal("no batches recorded")
	}
	avg := float64(items) / float64(batches)
	if maxB := h.stats.maxBatch.Load(); maxB < 8 {
		t.Fatalf("peak batch %d, want MaxBatch 8 under a saturated queue", maxB)
	}
	if avg < 4 {
		t.Fatalf("avg batch %.2f under a saturated queue, want >= MaxBatch/2 = 4", avg)
	}

	// The run also primes the observability satellites: a live drain rate
	// and a derived (bounded) Retry-After hint in the stats snapshot.
	st := reg.Stats()
	if len(st) != 1 || st[0].DrainRateQPS <= 0 {
		t.Fatalf("stats drain rate not populated: %+v", st)
	}
	if st[0].RetryHintS < 1 || st[0].RetryHintS > maxRetryAfterS {
		t.Fatalf("retry hint %d outside [1,%d]", st[0].RetryHintS, maxRetryAfterS)
	}
	if st[0].BusyEngines != 0 || st[0].IdleWorkers != 1 {
		t.Fatalf("drained model should be idle: busy=%d idle=%d", st[0].BusyEngines, st[0].IdleWorkers)
	}
}

// TestRawF32RoundTrip exercises the raw little-endian float32 content
// type over real HTTP: bit-identical logits, serving metadata in
// headers, the octet-stream synonym, and exact-length enforcement in
// both directions.
func TestRawF32RoundTrip(t *testing.T) {
	_, ts := newGateway(t, Config{Workers: 1})
	register(t, ts, "alpha", "raw", testSpec(8))
	input := sampleInput(t, 19)
	want := expectedLogits(t, 8, input)
	url := ts.URL + "/v1/tenants/alpha/models/raw/infer"
	body := rawBytes(input)

	for _, ct := range []string{ContentTypeF32, "application/octet-stream", ContentTypeF32 + "; charset=binary"} {
		resp, err := ts.Client().Post(url, ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("ct %q: %v status %d body %s", ct, err, resp.StatusCode, got)
		}
		if gct := resp.Header.Get("Content-Type"); gct != ContentTypeF32 {
			t.Fatalf("ct %q: response Content-Type %q, want %q", ct, gct, ContentTypeF32)
		}
		if !bitsEqual(rawFloats(got), want) {
			t.Fatalf("ct %q: raw-f32 logits not bit-identical to plaintext forward", ct)
		}
		if m := resp.Header.Get("X-Seal-Model"); m != "alpha/raw" {
			t.Fatalf("X-Seal-Model %q", m)
		}
		if g := resp.Header.Get("X-Seal-Gen"); g != "1" {
			t.Fatalf("X-Seal-Gen %q, want 1", g)
		}
		if b := resp.Header.Get("X-Seal-Batch"); b == "" || b == "0" {
			t.Fatalf("X-Seal-Batch %q", b)
		}
	}

	// Wrong lengths are 400s, not hangs or truncated reads.
	for _, bad := range [][]byte{body[:len(body)-4], append(append([]byte{}, body...), 0, 0, 0, 0), {}} {
		resp, err := ts.Client().Post(url, ContentTypeF32, bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body length %d: status %d, want 400", len(bad), resp.StatusCode)
		}
	}
}

// TestSteadyStateZeroAllocs pins the zero-allocation contract of the
// admit→dispatch→respond path (the HTTP transport is excluded by
// driving the hosted model directly): with warm pools, a full round
// trip — pooled request checkout, input copy, enqueue, per-engine
// collect, packed batch forward, logits fan-out, recycle — must not
// touch the heap. The engine's own warm path is allocation-free only on
// the serial worker pool, so this runs in CI's SEAL_WORKERS=1 step.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if parallel.Workers() != 1 {
		t.Skipf("needs SEAL_WORKERS=1 (parallel dispatch allocates closures; workers=%d)", parallel.Workers())
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates on the channel round trip")
	}
	reg := NewRegistry(Config{
		MasterKey: testMaster, Workers: 1, MaxBatch: 8, QueueDepth: 16, BatchWindow: 0,
	}.withDefaults())
	defer reg.Close()
	if _, err := reg.Register("t", "m", testSpec(4)); err != nil {
		t.Fatal(err)
	}
	h, err := reg.lookup("t", "m")
	if err != nil {
		t.Fatal(err)
	}
	input := sampleInput(t, 23)
	roundTrip := func() {
		p, err := h.admit(input)
		if err != nil {
			t.Fatal(err)
		}
		res := <-p.resp
		if res.err != nil {
			t.Fatal(res.err)
		}
		h.putPending(p)
	}
	for i := 0; i < 4; i++ {
		roundTrip() // warm: pending pool, logits buffers, engine workspaces
	}
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Fatalf("steady-state serve round trip allocates %.2f objects/op, want 0", n)
	}
}
