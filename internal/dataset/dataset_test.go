package dataset

import (
	"testing"

	"seal/internal/nn"
	"seal/internal/prng"
)

func smallCfg() Config {
	return Config{Classes: 4, C: 1, H: 8, W: 8, Noise: 0.3, Shift: 1, Freqs: 3}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(smallCfg(), 7).Sample(40)
	b := NewGenerator(smallCfg(), 7).Sample(40)
	for i := range a.Images.Data {
		if a.Images.Data[i] != b.Images.Data[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c := NewGenerator(smallCfg(), 8).Sample(40)
	diff := false
	for i := range a.Images.Data {
		if a.Images.Data[i] != c.Images.Data[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSampleBalancedLabels(t *testing.T) {
	ds := NewGenerator(smallCfg(), 1).Sample(40)
	counts := map[int]int{}
	for _, l := range ds.Labels {
		if l < 0 || l >= 4 {
			t.Fatalf("label %d out of range", l)
		}
		counts[l]++
	}
	for k := 0; k < 4; k++ {
		if counts[k] != 10 {
			t.Fatalf("class %d has %d samples, want 10", k, counts[k])
		}
	}
}

func TestPrototypesDistinct(t *testing.T) {
	g := NewGenerator(smallCfg(), 2)
	// first mode of classes 0 and 1
	per := g.Cfg.C * g.Cfg.H * g.Cfg.W
	p0 := g.prototypes.Data[:per]
	p1 := g.prototypes.Data[g.Cfg.Modes*per : (g.Cfg.Modes+1)*per]
	var dist float64
	for i := range p0 {
		d := float64(p0[i] - p1[i])
		dist += d * d
	}
	if dist < 1 {
		t.Fatalf("prototypes 0 and 1 nearly identical (sq dist %v)", dist)
	}
}

func TestCloneContinuesStream(t *testing.T) {
	g := NewGenerator(smallCfg(), 3)
	g.Sample(7)
	c := g.Clone()
	fromClone := c.Sample(20)
	c.Sample(5) // must not advance g
	fromG := g.Sample(20)
	for i := range fromG.Images.Data {
		if fromG.Images.Data[i] != fromClone.Images.Data[i] {
			t.Fatalf("clone drew different samples than its source at element %d", i)
		}
	}
}

func TestBatchExtraction(t *testing.T) {
	ds := NewGenerator(smallCfg(), 4).Sample(20)
	x, labels := ds.Batch(4, 8)
	if x.Dim(0) != 4 || len(labels) != 4 {
		t.Fatalf("batch shape %v, labels %d", x.Shape, len(labels))
	}
	// contents must match the source rows
	per := ds.Cfg.C * ds.Cfg.H * ds.Cfg.W
	for i := 0; i < 4*per; i++ {
		if x.Data[i] != ds.Images.Data[4*per+i] {
			t.Fatal("batch data mismatch")
		}
	}
	if labels[0] != ds.Labels[4] {
		t.Fatal("batch labels mismatch")
	}
}

func TestBatchPanicsOnBadRange(t *testing.T) {
	ds := NewGenerator(smallCfg(), 4).Sample(10)
	defer func() {
		if recover() == nil {
			t.Fatal("bad batch range accepted")
		}
	}()
	ds.Batch(8, 20)
}

func TestShufflePreservesPairs(t *testing.T) {
	g := NewGenerator(smallCfg(), 6)
	ds := g.Sample(40)
	// fingerprint: first pixel of each image keyed by label sequence
	sumBefore := make(map[int]float64)
	per := ds.Cfg.C * ds.Cfg.H * ds.Cfg.W
	for i, l := range ds.Labels {
		sumBefore[l] += float64(ds.Images.Data[i*per])
	}
	ds.Shuffle(prng.New(9))
	sumAfter := make(map[int]float64)
	for i, l := range ds.Labels {
		sumAfter[l] += float64(ds.Images.Data[i*per])
	}
	for k, v := range sumBefore {
		d := v - sumAfter[k]
		if d < -1e-4 || d > 1e-4 {
			t.Fatalf("class %d image/label pairing broken by shuffle", k)
		}
	}
}

func TestAppend(t *testing.T) {
	g := NewGenerator(smallCfg(), 10)
	a, b := g.Sample(8), g.Sample(12)
	c := a.Append(b)
	if c.Len() != 20 {
		t.Fatalf("appended length %d", c.Len())
	}
	if c.Labels[8] != b.Labels[0] {
		t.Fatal("append label order wrong")
	}
}

func TestSubsetPanicsOnEmpty(t *testing.T) {
	ds := NewGenerator(smallCfg(), 11).Sample(4)
	defer func() {
		if recover() == nil {
			t.Fatal("empty subset accepted")
		}
	}()
	ds.Subset(nil)
}

// TestTaskIsLearnable trains a small CNN briefly and checks that it beats
// chance comfortably — the property the security experiments rely on.
func TestTaskIsLearnable(t *testing.T) {
	cfg := smallCfg()
	g := NewGenerator(cfg, 12)
	train := g.Sample(200)
	test := g.Sample(80)
	r := prng.New(13)
	net := nn.NewSequential("probe",
		nn.NewConv2D("c1", r, 1, 8, 3, 1, 1, 8, 8),
		nn.NewReLU("r1"),
		nn.NewMaxPool2D("p1", 2, 2),
		nn.NewFlatten("f"),
		nn.NewLinear("fc", r, 8*4*4, 4),
	)
	opt := nn.NewSGD(0.05, 0.9, 0)
	for epoch := 0; epoch < 10; epoch++ {
		train.Shuffle(r)
		for lo := 0; lo+20 <= train.Len(); lo += 20 {
			x, labels := train.Batch(lo, lo+20)
			out := net.Forward(x, true)
			_, grad := nn.SoftmaxCrossEntropy(out, labels)
			net.Backward(grad)
			opt.Step(net.Params())
		}
	}
	x, labels := test.Batch(0, test.Len())
	acc := nn.Accuracy(net.Forward(x, false), labels)
	if acc < 0.7 {
		t.Fatalf("synthetic task not learnable: accuracy %v (chance 0.25)", acc)
	}
}
