package secure

import (
	"math"
	"testing"

	"seal/internal/core"
	"seal/internal/models"
	"seal/internal/nn"
	"seal/internal/parallel"
	"seal/internal/prng"
	"seal/internal/tensor"
)

var testKey = []byte("0123456789abcdef")

type testCase struct {
	name string
	arch *models.Arch
	opts core.Options
}

func testCases() []testCase {
	return []testCase{
		{"vgg16", models.VGG16Arch().Scale(0.125, 0), core.DefaultOptions()},
		{"resnet18", models.ResNet18Arch().Scale(0.125, 0), core.DefaultOptions()},
		{"mlp", models.MLPArch("mlp", 96, []int{64, 48}, 10), core.DefaultMLPOptions()},
	}
}

// imageFormat is the format axis of the engine tests. A float image is
// checked against the model's plaintext forward, an int8 image against
// nn's quantized eval forward, which buildEngine switches the model to.
type imageFormat struct {
	name string
	int8 bool
	wide int // widest batch of the equivalence matrix
}

var (
	floatImage   = imageFormat{"float", false, 16}
	int8Image    = imageFormat{"int8", true, 5}
	imageFormats = []imageFormat{floatImage, int8Image}
)

// buildEngine plans, lays out and encrypts a freshly initialized model
// in the given format, then wraps it in a streaming engine. For int8 it
// also enables the model's own quantized eval path, the bit-identity
// reference.
func buildEngine(t testing.TB, f imageFormat, arch *models.Arch, opts core.Options, ratio float64, seed uint64, panelBytes int) (*Engine, *models.Model) {
	t.Helper()
	m := buildModel(t, arch, seed)
	opts.Ratio = ratio
	p, err := core.NewPlan(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	newLayout := core.NewLayout
	if f.int8 {
		newLayout = core.NewInt8Layout
	}
	l, err := newLayout(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	img, err := core.NewMemoryImage(l, m, testKey)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(img, m, panelBytes)
	if err != nil {
		t.Fatal(err)
	}
	if e.Int8() != f.int8 {
		t.Fatalf("engine Int8() = %v on a %s image", e.Int8(), f.name)
	}
	if f.int8 {
		nn.EnableInt8(m.Net)
	}
	return e, m
}

// buildModel builds a freshly initialized model with random biases:
// they initialize to zero, which would leave the engine's bias adds
// untested.
func buildModel(t testing.TB, arch *models.Arch, seed uint64) *models.Model {
	t.Helper()
	m, err := models.Build(arch, prng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	r := prng.New(seed + 1)
	for _, w := range m.WeightLayers {
		var b *nn.Param
		if w.Conv != nil {
			b = w.Conv.Bias
		} else {
			b = w.FC.Bias
		}
		if b == nil {
			continue
		}
		for i := range b.W.Data {
			b.W.Data[i] = 0.1 * float32(r.NormFloat64())
		}
	}
	return m
}

func randInput(r *prng.Source, arch *models.Arch, n int) *tensor.Tensor {
	x := tensor.New(n, arch.InC, arch.InH, arch.InW)
	for i := range x.Data {
		x.Data[i] = float32(r.NormFloat64())
	}
	return x
}

// forward runs one secure forward and fails the test on an error.
func forward(t testing.TB, e *Engine, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	y, err := e.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

func cloneData(t *tensor.Tensor) []float32 {
	out := make([]float32, len(t.Data))
	copy(out, t.Data)
	return out
}

// TestForwardMatchesPlaintext is the tentpole equivalence matrix:
// streamed secure logits must be bit-identical to the model's own
// forward (plaintext for float images, nn's quantized eval path for
// int8 ones) for conv nets (plain and residual) and an all-FC net,
// across SE ratios, batch sizes, panel geometries and pool widths. Width
// 2 splits the int8 batch of 5 unevenly (3 + 2 items). For int8, exact
// int32 accumulation makes panel- and worker-invariance arithmetic
// facts; the shared float helper order does the rest.
func TestForwardMatchesPlaintext(t *testing.T) {
	for _, f := range imageFormats {
		t.Run(f.name, func(t *testing.T) {
			r := prng.New(77)
			for _, tc := range testCases() {
				for _, ratio := range []float64{0, 0.5, 1.0} {
					// panel budgets: single-block panels (maximum split), a
					// small multi-block panel, and the default (typically
					// one panel per layer at this scale)
					for _, panelBytes := range []int{1, 4096, 0} {
						e, m := buildEngine(t, f, tc.arch, tc.opts, ratio, 1000+uint64(ratio*10), panelBytes)
						for _, batch := range []int{1, f.wide} {
							x := randInput(r, tc.arch, batch)
							want := cloneData(m.Forward(x, false))
							for _, workers := range []int{1, 2, 8} {
								prev := parallel.SetWorkers(workers)
								got := forward(t, e, x)
								parallel.SetWorkers(prev)
								if len(got.Data) != len(want) {
									t.Fatalf("%s ratio %v panel %d batch %d: logits size %d, want %d",
										tc.name, ratio, panelBytes, batch, len(got.Data), len(want))
								}
								for i := range want {
									if got.Data[i] != want[i] {
										t.Fatalf("%s ratio %v panel %d batch %d workers %d: logit %d = %v, want %v",
											tc.name, ratio, panelBytes, batch, workers, i, got.Data[i], want[i])
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestForwardReadsWeightsFromImage zeroes every conv/FC kernel in the
// model after the image is built: the streamed logits must still match
// the original reference forward, proving the engine's weights come
// from the encrypted image, not from the model tensors.
func TestForwardReadsWeightsFromImage(t *testing.T) {
	for _, f := range imageFormats {
		t.Run(f.name, func(t *testing.T) {
			r := prng.New(99)
			for _, tc := range testCases() {
				e, m := buildEngine(t, f, tc.arch, tc.opts, 0.5, 7, 0)
				x := randInput(r, tc.arch, 2)
				want := cloneData(m.Forward(x, false))
				for _, w := range m.WeightLayers {
					if w.Conv != nil {
						w.Conv.Weight.W.Fill(0)
					} else {
						w.FC.Weight.W.Fill(0)
					}
				}
				if f.int8 {
					// The quantized path froze its weights at EnableInt8;
					// refreeze so the reference sees the zeroed kernels.
					nn.EnableInt8(m.Net)
				}
				zeroed := m.Forward(x, false)
				same := true
				for i := range want {
					if zeroed.Data[i] != want[i] {
						same = false
						break
					}
				}
				if same {
					t.Fatalf("%s: zeroing kernels did not change the reference forward — test is vacuous", tc.name)
				}
				got := forward(t, e, x)
				for i := range want {
					if got.Data[i] != want[i] {
						t.Fatalf("%s: logit %d = %v after zeroing model kernels, want %v (engine read model weights?)",
							tc.name, i, got.Data[i], want[i])
					}
				}
			}
		})
	}
}

// TestForwardStatsAccounting checks the traffic counters: one forward
// stages every weight region exactly once, in the panels its block size
// and the byte budget imply, splitting bytes between AES-GCM and the
// plaintext bypass according to the plan.
func TestForwardStatsAccounting(t *testing.T) {
	const panelBytes = 4096
	arch := models.VGG16Arch().Scale(0.125, 0)
	for _, f := range imageFormats {
		t.Run(f.name, func(t *testing.T) {
			e, _ := buildEngine(t, f, arch, core.DefaultOptions(), 0.5, 3, panelBytes)
			forward(t, e, randInput(prng.New(55), arch, 1))
			st := e.Stats()
			var wantTotal, wantEnc, wantPanels int64
			for _, lp := range e.img.Layout.Plan.Layers {
				reg := e.img.Layout.Region("w:" + lp.Name)
				wantTotal += int64(reg.Size)
				wantEnc += int64(reg.EncryptedBytes())
				cpp := min(max(panelBytes/int(reg.BlockBytes), 1), reg.Blocks())
				wantPanels += int64((reg.Blocks() + cpp - 1) / cpp)
			}
			if st.Forwards != 1 {
				t.Fatalf("Forwards = %d, want 1", st.Forwards)
			}
			if st.BytesDecrypted != wantEnc {
				t.Fatalf("BytesDecrypted = %d, want %d", st.BytesDecrypted, wantEnc)
			}
			if st.BytesDecrypted+st.BytesCopied != wantTotal {
				t.Fatalf("decrypted+copied = %d, want total region bytes %d", st.BytesDecrypted+st.BytesCopied, wantTotal)
			}
			if st.Panels <= int64(len(e.img.Layout.Plan.Layers)) {
				t.Fatalf("Panels = %d, expected multiple panels per layer at 4 KiB budget", st.Panels)
			}
			if st.Panels != wantPanels {
				t.Fatalf("Panels = %d, want %d (one per ⌈blocks/cpp⌉ per layer)", st.Panels, wantPanels)
			}
			e.ResetStats()
			if e.Stats() != (Stats{}) {
				t.Fatal("ResetStats did not zero the counters")
			}
		})
	}
}

// TestForwardZeroAllocWarm is the allocation regression for the warm
// streaming path: with the pool pinned to one worker (the multi-worker
// path allocates its dispatch closures, as everywhere in this codebase),
// a warm secure forward must not touch the heap.
func TestForwardZeroAllocWarm(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, f := range imageFormats {
		t.Run(f.name, func(t *testing.T) {
			r := prng.New(44)
			for _, tc := range testCases() {
				for _, panelBytes := range []int{4096, 0} {
					e, _ := buildEngine(t, f, tc.arch, tc.opts, 0.5, 9, panelBytes)
					x := randInput(r, tc.arch, 2)
					forward(t, e, x) // warm-up: builds headers, workspaces, module buffers
					if n := testing.AllocsPerRun(10, func() { e.Forward(x) }); n != 0 {
						t.Fatalf("%s panel %d: warm secure forward allocates %.1f objects/op, want 0", tc.name, panelBytes, n)
					}
				}
			}
		})
	}
}

// TestForwardBatchShrinkReusesStorage pins the grow-only workspace
// contract the serving gateway depends on: after one forward at the
// widest batch, narrower batches must allocate nothing (the layer
// outputs re-slice the same storage) and still produce logits
// bit-identical to a never-grown engine at that batch.
func TestForwardBatchShrinkReusesStorage(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, f := range imageFormats {
		t.Run(f.name, func(t *testing.T) {
			r := prng.New(66)
			for _, tc := range testCases() {
				e, _ := buildEngine(t, f, tc.arch, tc.opts, 0.5, 31, 4096)
				wide := randInput(r, tc.arch, 8)
				forward(t, e, wide) // widest batch: grows every workspace once
				for _, batch := range []int{1, 3, 8} {
					x := randInput(r, tc.arch, batch)
					fresh, _ := buildEngine(t, f, tc.arch, tc.opts, 0.5, 31, 4096)
					want := cloneData(forward(t, fresh, x))
					got := cloneData(forward(t, e, x))
					if len(got) != len(want) {
						t.Fatalf("%s batch %d: logits size %d, want %d", tc.name, batch, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s batch %d: logit %d = %v, want %v (shrunk-workspace forward diverged)", tc.name, batch, i, got[i], want[i])
						}
					}
					if n := testing.AllocsPerRun(10, func() { e.Forward(x) }); n != 0 {
						t.Fatalf("%s: forward at batch %d after batch 8 allocates %.1f objects/op, want 0 (workspaces not grow-only)", tc.name, batch, n)
					}
				}
			}
		})
	}
}

// TestNewEngineRejectsMismatchedModel checks construction-time
// validation: an image planned for a different network must not pair
// with this model — neither a different architecture nor the same one
// at another width, whose layer names all match but whose weight
// regions hold the wrong number or size of kernel-row blocks.
func TestNewEngineRejectsMismatchedModel(t *testing.T) {
	build := func(arch *models.Arch, seed uint64) *models.Model {
		m, err := models.Build(arch, prng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := build(models.VGG16Arch().Scale(0.125, 0), 5)
	others := map[string]*models.Model{
		"resnet18":    build(models.ResNet18Arch().Scale(0.125, 0), 6),
		"vgg16 x0.25": build(models.VGG16Arch().Scale(0.25, 0), 7),
	}
	for _, f := range imageFormats {
		p, err := core.NewPlan(m, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		newLayout := core.NewLayout
		if f.int8 {
			newLayout = core.NewInt8Layout
		}
		l, err := newLayout(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		img, err := core.NewMemoryImage(l, m, testKey)
		if err != nil {
			t.Fatal(err)
		}
		for name, other := range others {
			if _, err := NewEngine(img, other, 0); err == nil {
				t.Fatalf("%s: engine accepted an image planned for %s", f.name, name)
			}
		}
		if _, err := NewEngine(img, m, 0); err != nil {
			t.Fatalf("%s: engine rejected its own model: %v", f.name, err)
		}
	}
}

// TestInt8ForwardCloseToFloat bounds the quantized streamed logits
// against the float model forward. The bound is coarse (per-layer
// quantization error compounds through the net), but catches scale
// mishandling, which shows up as order-of-magnitude drift.
func TestInt8ForwardCloseToFloat(t *testing.T) {
	r := prng.New(178)
	for _, tc := range testCases() {
		e, _ := buildEngine(t, int8Image, tc.arch, tc.opts, 0.5, 2100, 0)
		x := randInput(r, tc.arch, 2)
		got := cloneData(forward(t, e, x))
		// the model reference must be the float path: rebuild fresh
		want := buildModel(t, tc.arch, 2100).Forward(x, false)
		var maxAbs float64
		for _, v := range want.Data {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
		tol := 0.1 * maxAbs
		if tol == 0 {
			tol = 1e-3
		}
		for i := range got {
			if d := math.Abs(float64(got[i] - want.Data[i])); d > tol {
				t.Fatalf("%s logit %d: int8 %v vs float %v (|Δ| %v > tol %v)",
					tc.name, i, got[i], want.Data[i], d, tol)
			}
		}
	}
}

// TestInt8EngineDecryptsFewerBytes pins the memory-side win: one int8
// forward must push well under the float engine's ciphertext bytes
// through AES-GCM (1 byte/weight vs 4, before line
// alignment).
func TestInt8EngineDecryptsFewerBytes(t *testing.T) {
	r := prng.New(179)
	arch := models.VGG16Arch().Scale(0.25, 0)
	ef, _ := buildEngine(t, floatImage, arch, core.DefaultOptions(), 0.5, 3000, 0)
	e8, _ := buildEngine(t, int8Image, arch, core.DefaultOptions(), 0.5, 3000, 0)
	x := randInput(r, arch, 1)
	forward(t, ef, x)
	forward(t, e8, x)
	fb := ef.Stats().BytesDecrypted
	qb := e8.Stats().BytesDecrypted
	if qb == 0 || fb == 0 {
		t.Fatalf("unexpected zero decrypt counts: float %d int8 %d", fb, qb)
	}
	if ratio := float64(fb) / float64(qb); ratio < 3.5 {
		t.Fatalf("int8 decrypt traffic only %.2fx under float (float %d, int8 %d)", ratio, fb, qb)
	}
}
