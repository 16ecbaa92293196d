package seal

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"seal/internal/parallel"
	"seal/internal/prng"
)

// randInput fills a fresh batch tensor for an architecture.
func randInput(arch *Arch, batch int, seed uint64) *Tensor {
	x := NewTensor(batch, arch.InC, arch.InH, arch.InW)
	rng := prng.New(seed)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	return x
}

// forward runs one secure forward (Prepared.Forward or
// SecureEngine.Forward) and fails the test on an error.
func forward(t testing.TB, fwd func(*Tensor) (*Tensor, error), x *Tensor) *Tensor {
	t.Helper()
	y, err := fwd(x)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

// TestPrepareMatchesManualChain pins the redesigned one-call API to the
// five-step constructor chain it replaced: same arch, seed, key and
// panel budget must produce bit-identical logits, at serial and
// parallel pool widths.
func TestPrepareMatchesManualChain(t *testing.T) {
	key := KeyFromString("prepare equivalence key")
	for _, name := range []string{"vgg16", "resnet18"} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers%d", name, workers), func(t *testing.T) {
				prev := parallel.SetWorkers(workers)
				defer parallel.SetWorkers(prev)

				arch, err := ArchByName(name)
				if err != nil {
					t.Fatal(err)
				}
				arch = arch.Scale(0.125, 0)
				x := randInput(arch, 2, 99)

				// Manual five-step chain.
				model, err := BuildModel(arch, 42)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := NewPlan(model, DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				layout, err := NewLayout(plan, 1)
				if err != nil {
					t.Fatal(err)
				}
				img, err := NewMemoryImage(layout, model, key)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := NewSecureEngine(img, model)
				if err != nil {
					t.Fatal(err)
				}
				want := forward(t, eng.Forward, x)
				wantCopy := make([]float32, len(want.Data))
				copy(wantCopy, want.Data)

				// One-call Prepare.
				p, err := Prepare(arch, 42, WithKey(key))
				if err != nil {
					t.Fatal(err)
				}
				got := forward(t, p.Forward, x)
				if len(got.Data) != len(wantCopy) {
					t.Fatalf("logits length %d, want %d", len(got.Data), len(wantCopy))
				}
				for i := range wantCopy {
					if got.Data[i] != wantCopy[i] {
						t.Fatalf("logit %d = %v, want %v (not bit-identical)", i, got.Data[i], wantCopy[i])
					}
				}

				// And against the plaintext forward, which the secure path
				// promises bit-identity with.
				plain := p.Model().Forward(x, false)
				for i := range wantCopy {
					if plain.Data[i] != wantCopy[i] {
						t.Fatalf("plaintext logit %d = %v, want %v", i, plain.Data[i], wantCopy[i])
					}
				}
			})
		}
	}
}

func TestPrepareOptionsApply(t *testing.T) {
	arch, err := ArchByName("vgg16")
	if err != nil {
		t.Fatal(err)
	}
	arch = arch.Scale(0.0625, 0)
	opts := DefaultOptions()
	opts.Ratio = 1.0
	p, err := Prepare(arch, 7, WithOptions(opts), WithBatch(4), WithPanelBytes(4096))
	if err != nil {
		t.Fatal(err)
	}
	if f := p.Plan().WeightEncFraction(); f != 1.0 {
		t.Fatalf("ratio 1.0 plan encrypts %.3f of weights, want 1.0", f)
	}
	if pb := p.Engine().PanelBytes(); pb != 4096 {
		t.Fatalf("engine panel bytes %d, want 4096", pb)
	}
	if p.Arch() != arch || p.Seed() != 7 {
		t.Fatal("accessors do not round-trip arch/seed")
	}
	if _, err := Prepare(arch, 7, WithBatch(0)); err == nil {
		t.Fatal("batch 0 accepted")
	}
	if _, err := Prepare(nil, 7); err == nil {
		t.Fatal("nil arch accepted")
	}
	// NaN passes a ratio check written as r < 0 || r > 1; Prepare must
	// still return an error, not panic in the row selection.
	opts.Ratio = math.NaN()
	if _, err := Prepare(arch, 7, WithOptions(opts)); err == nil {
		t.Fatal("NaN ratio accepted")
	}
}

// TestPrepareRejectsBadOptions pins the Prepare-time option validation:
// nonsense arguments fail fast with the wrapped ErrBadOption sentinel
// instead of surfacing later from engine construction, while omitting
// WithPanelBytes keeps the engine default.
func TestPrepareRejectsBadOptions(t *testing.T) {
	arch, err := ArchByName("vgg16")
	if err != nil {
		t.Fatal(err)
	}
	arch = arch.Scale(0.0625, 0)
	for _, bad := range []struct {
		name string
		opt  PrepareOption
	}{
		{"panel 0", WithPanelBytes(0)},
		{"panel -1", WithPanelBytes(-1)},
		{"panel -4096", WithPanelBytes(-4096)},
		{"batch 0", WithBatch(0)},
		{"batch -3", WithBatch(-3)},
	} {
		_, err := Prepare(arch, 7, bad.opt)
		if err == nil {
			t.Fatalf("%s accepted", bad.name)
		}
		if !errors.Is(err, ErrBadOption) {
			t.Fatalf("%s: error %v does not wrap ErrBadOption", bad.name, err)
		}
	}
	if _, err := Prepare(arch, 7); err != nil {
		t.Fatalf("default panel budget rejected: %v", err)
	}
}

// TestPrepareInt8 drives WithInt8 through the façade: the bundle
// reports int8, the sealed image carries the quantized layout (1-byte
// weight regions plus plaintext scales headers), the streamed logits
// are bit-identical to the bundled quantized eval forward — including
// on a pool worker from NewEngine — and stay within quantization
// tolerance of a float Prepare of the same seed.
func TestPrepareInt8(t *testing.T) {
	arch, err := ArchByName("vgg16")
	if err != nil {
		t.Fatal(err)
	}
	arch = arch.Scale(0.125, 0)
	key := KeyFromString("int8 facade key")
	p8, err := Prepare(arch, 33, WithKey(key), WithInt8())
	if err != nil {
		t.Fatal(err)
	}
	if !p8.Int8() {
		t.Fatal("Int8() false on a WithInt8 bundle")
	}
	pf, err := Prepare(arch, 33, WithKey(key))
	if err != nil {
		t.Fatal(err)
	}
	if pf.Int8() {
		t.Fatal("Int8() true on a float bundle")
	}
	var qb, fb uint64
	for _, lp := range p8.Plan().Layers {
		if p8.Layout().Region("qs:"+lp.Name) == nil {
			t.Fatalf("%s missing plaintext scales region", lp.Name)
		}
		// Per-layer sizes can tie on tiny layers (4 KiB page alignment),
		// but the totals must show the ~4x byte-per-weight cut.
		qb += p8.Layout().Region("w:" + lp.Name).Size
		fb += pf.Layout().Region("w:" + lp.Name).Size
	}
	if ratio := float64(fb) / float64(qb); ratio < 2.5 {
		t.Fatalf("int8 weight regions only %.2fx under float (%d vs %d bytes)", ratio, qb, fb)
	}

	x := randInput(arch, 2, 11)
	want := p8.Model().Forward(x, false)
	wantCopy := make([]float32, len(want.Data))
	copy(wantCopy, want.Data)
	got := forward(t, p8.Forward, x)
	for i := range wantCopy {
		if got.Data[i] != wantCopy[i] {
			t.Fatalf("int8 logit %d = %v, want %v (not bit-identical to quantized eval)", i, got.Data[i], wantCopy[i])
		}
	}
	w, err := p8.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	wgot := forward(t, w.Forward, x)
	for i := range wantCopy {
		if wgot.Data[i] != wantCopy[i] {
			t.Fatalf("worker int8 logit %d = %v, want %v", i, wgot.Data[i], wantCopy[i])
		}
	}

	ref := pf.Model().Forward(x, false)
	var maxAbs float64
	for _, v := range ref.Data {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	tol := 0.1 * maxAbs
	if tol == 0 {
		tol = 1e-3
	}
	for i := range wantCopy {
		if d := math.Abs(float64(wantCopy[i] - ref.Data[i])); d > tol {
			t.Fatalf("int8 logit %d drifts %v from float %v (tol %v)", i, d, ref.Data[i], tol)
		}
	}
}

// TestPreparedNewEngine pins the pool-worker path: an engine rebuilt
// from the bundle's seed over the shared image produces the same bits
// as the primary engine.
func TestPreparedNewEngine(t *testing.T) {
	base, err := ArchByName("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	arch := base.Scale(0.0625, 0)
	p, err := Prepare(arch, 21, WithKey(KeyFromString("worker key")))
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(arch, 2, 5)
	want := forward(t, p.Forward, x)
	wantCopy := make([]float32, len(want.Data))
	copy(wantCopy, want.Data)

	w, err := p.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if w == p.Engine() {
		t.Fatal("NewEngine returned the primary engine")
	}
	if w.Image() != p.Image() {
		t.Fatal("worker engine does not share the sealed image")
	}
	if w.Model() == p.Model() {
		t.Fatal("worker engine shares the primary model (engines would race)")
	}
	got := forward(t, w.Forward, x)
	for i := range wantCopy {
		if got.Data[i] != wantCopy[i] {
			t.Fatalf("worker logit %d = %v, want %v", i, got.Data[i], wantCopy[i])
		}
	}
}
