package seal

import (
	"testing"

	"seal/internal/prng"
	"seal/internal/tensor"
)

// testImageKey seals the images the façade tests build.
var testImageKey = KeyFromString("seal facade test key")

func TestFacadeEndToEnd(t *testing.T) {
	arch := ResNet18().Scale(0.125, 0)
	model, err := BuildModel(arch, 42)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(model, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
	layout, err := NewLayout(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := layout.EncryptedFraction()
	if f <= 0.3 || f >= 0.95 {
		t.Fatalf("encrypted fraction %v out of expected band", f)
	}
}

func TestFacadeArchs(t *testing.T) {
	for _, name := range []string{"vgg16", "resnet18", "resnet34"} {
		a, err := ArchByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if VGG16().WeightLayerCount() != 16 {
		t.Fatal("VGG16 facade wrong")
	}
}

func TestFacadeSimRuns(t *testing.T) {
	cfg := GTX480()
	cfg.NumSMs = 2
	cfg.Channels = 2
	sim, err := NewSim(cfg.WithMode(ModeDirect, nil))
	if err != nil {
		t.Fatal(err)
	}
	streams := makeReadStreams(200)
	res, err := sim.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	if res.EngineBytes() == 0 {
		t.Fatal("direct mode used no engine")
	}
}

func TestFacadeTrainingImproves(t *testing.T) {
	arch := ResNet18().Scale(0.0625, 0)
	model, err := BuildModel(arch, 7)
	if err != nil {
		t.Fatal(err)
	}
	ds := SyntheticCIFAR10(1, 200)
	before := Accuracy(model, ds)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	Train(model, ds, cfg, 9)
	after := Accuracy(model, ds)
	if after <= before {
		t.Fatalf("training did not improve accuracy: %v -> %v", before, after)
	}
}

func makeReadStreams(n int) []Stream {
	st := make(Stream, n)
	for i := range st {
		st[i] = Op{Compute: 1, Addr: uint64(i) * 64}
	}
	return []Stream{st}
}

func TestQuickTimingConfigSmallerThanDefault(t *testing.T) {
	d, q := DefaultTimingConfig(), QuickTimingConfig()
	if q.MatmulN >= d.MatmulN || q.Scale >= d.Scale {
		t.Fatalf("quick config not smaller: %+v vs %+v", q, d)
	}
}

func TestFacadeMemoryImage(t *testing.T) {
	arch := ResNet18().Scale(0.125, 0)
	model, err := BuildModel(arch, 5)
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
	img, err := NewMemoryImage(layout, model, testImageKey)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := img.Audit(model)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no audit reports")
	}
}

func TestFacadeSecureEngine(t *testing.T) {
	arch := VGG16().Scale(0.125, 0)
	model, err := BuildModel(arch, 6)
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
	img, err := NewMemoryImage(layout, model, testImageKey)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewSecureEngine(img, model)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, arch.InC, arch.InH, arch.InW)
	rng := prng.New(8)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	want := model.Forward(x, false)
	wantCopy := make([]float32, len(want.Data))
	copy(wantCopy, want.Data)
	got := forward(t, eng.Forward, x)
	for i := range wantCopy {
		if got.Data[i] != wantCopy[i] {
			t.Fatalf("secure logit %d = %v, want %v", i, got.Data[i], wantCopy[i])
		}
	}
	var st SecureStats = eng.Stats()
	if st.Forwards != 1 || st.BytesDecrypted == 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}
