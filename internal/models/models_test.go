package models

import (
	"testing"

	"seal/internal/nn"
	"seal/internal/prng"
	"seal/internal/tensor"
)

func TestArchsValidate(t *testing.T) {
	for _, a := range Archs() {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestVGG16LayerCounts(t *testing.T) {
	a := VGG16Arch()
	convs := a.ConvSpecs()
	fcs := a.FCSpecs()
	if len(convs) != 13 {
		t.Fatalf("VGG-16 has %d CONV layers, want 13", len(convs))
	}
	if len(fcs) != 3 {
		t.Fatalf("VGG-16 has %d FC layers, want 3", len(fcs))
	}
	if a.WeightLayerCount() != 16 {
		t.Fatalf("VGG-16 weight layers = %d, want 16", a.WeightLayerCount())
	}
	// channel progression of the five blocks
	wantC := []int{64, 64, 128, 128, 256, 256, 256, 512, 512, 512, 512, 512, 512}
	for i, s := range convs {
		if s.OutC != wantC[i] {
			t.Fatalf("conv %d OutC = %d, want %d", i, s.OutC, wantC[i])
		}
	}
}

func TestResNetLayerCounts(t *testing.T) {
	// Paper §III-A: 17/18 CONV for ResNet-18, 33/34 for ResNet-34,
	// counting only main-path convs (shortcut projections are auxiliary).
	for _, tc := range []struct {
		arch      *Arch
		mainConvs int
		shortcuts int
	}{
		{ResNet18Arch(), 17, 3},
		{ResNet34Arch(), 33, 3},
	} {
		main, sc := 0, 0
		for _, s := range tc.arch.Specs {
			if s.Kind != KindConv {
				continue
			}
			if s.ShortcutOf != "" {
				sc++
			} else {
				main++
			}
		}
		if main != tc.mainConvs {
			t.Errorf("%s main convs = %d, want %d", tc.arch.Name, main, tc.mainConvs)
		}
		if sc != tc.shortcuts {
			t.Errorf("%s shortcuts = %d, want %d", tc.arch.Name, sc, tc.shortcuts)
		}
		if fcs := tc.arch.FCSpecs(); len(fcs) != 1 {
			t.Errorf("%s FC layers = %d, want 1", tc.arch.Name, len(fcs))
		}
	}
}

func TestVGG16WeightCount(t *testing.T) {
	a := VGG16Arch()
	// conv1_1: 64*3*3*3 = 1728
	if w := a.Specs[0].WeightCount(); w != 1728 {
		t.Fatalf("conv1_1 weights = %d, want 1728", w)
	}
	// total must be in the ~15M region for CIFAR VGG-16
	total := a.TotalWeights()
	if total < 14_000_000 || total > 16_000_000 {
		t.Fatalf("VGG-16 total weights = %d, want ≈15M", total)
	}
}

func TestLayerSpecGeometry(t *testing.T) {
	s := LayerSpec{Kind: KindConv, InC: 64, OutC: 128, InH: 16, InW: 16, K: 3, Stride: 2, Pad: 1}
	if s.OutH() != 8 || s.OutW() != 8 {
		t.Fatalf("strided conv out %dx%d", s.OutH(), s.OutW())
	}
}

func TestScalePreservesTopology(t *testing.T) {
	for _, a := range Archs() {
		small := a.Scale(0.25, 0)
		if err := small.Validate(); err != nil {
			t.Fatalf("%s scaled: %v", a.Name, err)
		}
		if len(small.Specs) != len(a.Specs) {
			t.Fatalf("%s scaled spec count %d != %d", a.Name, len(small.Specs), len(a.Specs))
		}
		if small.InH != a.InH || small.InC != 3 {
			t.Fatalf("%s scaled input %dx%dx%d", a.Name, small.InC, small.InH, small.InW)
		}
		// classifier width must be preserved
		fcs := small.FCSpecs()
		if fcs[len(fcs)-1].OutC != a.Classes {
			t.Fatalf("%s scaled classifier OutC = %d", a.Name, fcs[len(fcs)-1].OutC)
		}
	}
}

func TestArchByName(t *testing.T) {
	for _, name := range []string{"vgg16", "resnet18", "resnet34"} {
		if _, err := ArchByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := ArchByName("alexnet"); err == nil {
		t.Error("unknown arch accepted")
	}
}

func TestBuildForwardShapes(t *testing.T) {
	r := prng.New(1)
	for _, a := range Archs() {
		small := a.Scale(0.125, 0)
		m, err := Build(small, r)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		x := tensor.New(2, 3, 32, 32)
		for i := range x.Data {
			x.Data[i] = float32(r.NormFloat64())
		}
		out := m.Forward(x, false)
		if out.Dim(0) != 2 || out.Dim(1) != 10 {
			t.Fatalf("%s logits shape %v", a.Name, out.Shape)
		}
	}
}

func TestBuildWeightLayerOrder(t *testing.T) {
	r := prng.New(2)
	a := ResNet18Arch().Scale(0.125, 0)
	m, err := Build(a, r)
	if err != nil {
		t.Fatal(err)
	}
	// WeightLayers must be exactly the arch's CONV+FC specs in order.
	want := 0
	for _, s := range a.Specs {
		if s.Kind == KindConv || s.Kind == KindFC {
			if m.WeightLayers[want].Name != s.Name {
				t.Fatalf("weight layer %d = %s, want %s", want, m.WeightLayers[want].Name, s.Name)
			}
			want++
		}
	}
	if want != len(m.WeightLayers) {
		t.Fatalf("weight layer count %d, want %d", len(m.WeightLayers), want)
	}
}

func TestBuildTrainStep(t *testing.T) {
	r := prng.New(3)
	a := ResNet18Arch().Scale(0.125, 0)
	m, err := Build(a, r)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 3, 32, 32)
	for i := range x.Data {
		x.Data[i] = float32(r.NormFloat64())
	}
	labels := []int{0, 1, 2, 3}
	opt := nn.NewSGD(0.01, 0.9, 1e-4)
	out := m.Forward(x, true)
	first, grad := nn.SoftmaxCrossEntropy(out, labels)
	m.Backward(grad)
	opt.Step(m.Params())
	out = m.Forward(x, true)
	second, _ := nn.SoftmaxCrossEntropy(out, labels)
	if second >= first {
		// One step on the same batch with momentum SGD should reduce loss.
		t.Fatalf("loss did not decrease: %v -> %v", first, second)
	}
}

func TestCloneProducesIdenticalOutputs(t *testing.T) {
	r := prng.New(4)
	a := VGG16Arch().Scale(0.125, 0)
	m, err := Build(a, r)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 3, 32, 32)
	for i := range x.Data {
		x.Data[i] = float32(r.NormFloat64())
	}
	// touch running stats so Clone must copy them too
	m.Forward(x, true)
	c, err := m.Clone(prng.New(999))
	if err != nil {
		t.Fatal(err)
	}
	a1 := m.Forward(x, false)
	a2 := c.Forward(x, false)
	if !tensor.Equal(a1, a2, 0) {
		t.Fatal("clone output differs from original")
	}
}

func TestCopyFromRejectsMismatchedArch(t *testing.T) {
	r := prng.New(5)
	m1, err := Build(VGG16Arch().Scale(0.125, 0), r)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Build(ResNet18Arch().Scale(0.125, 0), r)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.CopyFrom(m1); err == nil {
		t.Fatal("CopyFrom accepted mismatched architectures")
	}
}

func TestValidateCatchesBrokenChain(t *testing.T) {
	a := VGG16Arch()
	a.Specs[3].InC = 999
	if err := a.Validate(); err == nil {
		t.Fatal("Validate accepted broken layer chain")
	}
}
