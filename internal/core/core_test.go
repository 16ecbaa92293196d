package core

import (
	"math"
	"testing"
	"testing/quick"

	"seal/internal/models"
	"seal/internal/prng"
)

func buildSmall(t testing.TB, arch *models.Arch, seed uint64) *models.Model {
	t.Helper()
	m, err := models.Build(arch.Scale(0.125, 0), prng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRowNormsConvHandExample(t *testing.T) {
	r := prng.New(1)
	m := buildSmall(t, models.VGG16Arch(), 1)
	_ = r
	w := m.WeightLayers[0]
	norms := RowNorms(w, MetricL1, nil)
	if len(norms) != w.Spec.InC {
		t.Fatalf("norms length %d, want %d", len(norms), w.Spec.InC)
	}
	for i := range norms {
		want := KernelRowL1(w.Conv.Weight.W, i)
		if math.Abs(norms[i]-want) > 1e-9 {
			t.Fatalf("row %d norm %v, want %v", i, norms[i], want)
		}
	}
}

func TestRowNormsManualTensor(t *testing.T) {
	// 2 out channels, 2 in channels, 1x1 kernels:
	// W[0,0]=1, W[0,1]=-2, W[1,0]=3, W[1,1]=-4
	m := buildSmall(t, models.VGG16Arch(), 2)
	conv := m.WeightLayers[0].Conv
	_ = conv
	// use the FC path with a hand matrix instead
	fc := m.WeightLayers[len(m.WeightLayers)-1]
	if fc.FC == nil {
		t.Fatal("last weight layer not FC")
	}
	for i := range fc.FC.Weight.W.Data {
		fc.FC.Weight.W.Data[i] = 0
	}
	// out x in matrix: column norms
	in := fc.Spec.InC
	fc.FC.Weight.W.Data[0] = 1     // row 0, col 0
	fc.FC.Weight.W.Data[1] = -2    // row 0, col 1
	fc.FC.Weight.W.Data[in] = 3    // row 1, col 0
	fc.FC.Weight.W.Data[in+1] = -4 // row 1, col 1
	norms := RowNorms(fc, MetricL1, nil)
	if norms[0] != 4 || norms[1] != 6 {
		t.Fatalf("fc norms = %v %v, want 4 6", norms[0], norms[1])
	}
	normsL2 := RowNorms(fc, MetricL2, nil)
	if normsL2[0] != 10 || normsL2[1] != 20 {
		t.Fatalf("fc l2 norms = %v %v, want 10 20", normsL2[0], normsL2[1])
	}
}

func TestSelectRowsTopK(t *testing.T) {
	norms := []float64{0.1, 5, 3, 0.2, 4, 1}
	enc := SelectRows(norms, 0.5)
	// top 3: indices 1 (5), 4 (4), 2 (3)
	want := []bool{false, true, true, false, true, false}
	for i := range want {
		if enc[i] != want[i] {
			t.Fatalf("SelectRows = %v, want %v", enc, want)
		}
	}
}

func TestSelectRowsEdgeRatios(t *testing.T) {
	norms := []float64{1, 2, 3, 4}
	if n := countTrue(SelectRows(norms, 0)); n != 0 {
		t.Fatalf("ratio 0 encrypted %d rows", n)
	}
	if n := countTrue(SelectRows(norms, 1)); n != 4 {
		t.Fatalf("ratio 1 encrypted %d rows", n)
	}
	// rounding: 4*0.4+0.5 = 2.1 → 2
	if n := countTrue(SelectRows(norms, 0.4)); n != 2 {
		t.Fatalf("ratio 0.4 encrypted %d rows", n)
	}
}

func TestSelectRowsDeterministicOnTies(t *testing.T) {
	norms := []float64{2, 2, 2, 2}
	a := SelectRows(norms, 0.5)
	b := SelectRows(norms, 0.5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tie-breaking not deterministic")
		}
	}
	if !a[0] || !a[1] || a[2] || a[3] {
		t.Fatalf("ties should break by index: %v", a)
	}
}

func TestMetricRandomIgnoresWeights(t *testing.T) {
	m := buildSmall(t, models.VGG16Arch(), 3)
	w := m.WeightLayers[3]
	a := RowNorms(w, MetricRandom, prng.New(7))
	b := RowNorms(w, MetricRandom, prng.New(7))
	c := RowNorms(w, MetricRandom, prng.New(8))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random metric not seed-deterministic")
		}
	}
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("random metric identical across seeds")
	}
}

func mustPlan(t testing.TB, m *models.Model, opts Options) *Plan {
	t.Helper()
	p, err := NewPlan(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanBoundaryLayersFull(t *testing.T) {
	m := buildSmall(t, models.VGG16Arch(), 4)
	p := mustPlan(t, m, DefaultOptions())
	// VGG-16: 13 convs + 3 FCs. Full: conv 1, 2, 13 and fc3.
	fullNames := map[string]bool{}
	for _, lp := range p.Layers {
		if lp.Full {
			fullNames[lp.Name] = true
		}
	}
	for _, want := range []string{"conv1_1", "conv1_2", "conv5_3", "fc3"} {
		if !fullNames[want] {
			t.Errorf("%s not fully encrypted; full set = %v", want, fullNames)
		}
	}
	if len(fullNames) != 4 {
		t.Errorf("full layers = %v, want exactly 4", fullNames)
	}
	// a middle layer must be at the 50% ratio
	mid := p.LayerByName("conv3_2")
	if mid == nil || mid.Full {
		t.Fatal("conv3_2 missing or full")
	}
	wantEnc := int(float64(mid.Spec.InC)*0.5 + 0.5)
	if mid.EncRowCount() != wantEnc {
		t.Fatalf("conv3_2 encrypted rows %d, want %d", mid.EncRowCount(), wantEnc)
	}
}

func TestPlanEncryptsLargestRows(t *testing.T) {
	m := buildSmall(t, models.VGG16Arch(), 5)
	p := mustPlan(t, m, DefaultOptions())
	lp := p.LayerByName("conv4_2")
	minEnc, maxPlain := math.Inf(1), math.Inf(-1)
	for i, e := range lp.EncRows {
		if e && lp.Norms[i] < minEnc {
			minEnc = lp.Norms[i]
		}
		if !e && lp.Norms[i] > maxPlain {
			maxPlain = lp.Norms[i]
		}
	}
	if minEnc < maxPlain {
		t.Fatalf("an unencrypted row (%v) outranks an encrypted one (%v)", maxPlain, minEnc)
	}
}

func TestPlanSecurityInvariant(t *testing.T) {
	for _, arch := range models.Archs() {
		m := buildSmall(t, arch, 6)
		p := mustPlan(t, m, DefaultOptions())
		if err := p.Verify(); err != nil {
			t.Errorf("%s: %v", arch.Name, err)
		}
		// InEnc must cover EncRows on every non-input layer
		for i, lp := range p.Layers {
			if i == 0 {
				continue
			}
			for c, e := range lp.EncRows {
				if e && !lp.InEnc[c] {
					t.Fatalf("%s %s: encrypted row %d with plaintext input channel", arch.Name, lp.Name, c)
				}
			}
		}
	}
}

func TestPlanPropagatesToProducers(t *testing.T) {
	m := buildSmall(t, models.VGG16Arch(), 7)
	p := mustPlan(t, m, DefaultOptions())
	// producer's OutEnc must cover the consumer's InEnc (chain layers)
	for i := 0; i+1 < len(p.Layers); i++ {
		prod, cons := p.Layers[i], p.Layers[i+1]
		if cons.Spec.ShortcutOf != "" || cons.Spec.Kind == models.KindFC {
			continue
		}
		for c := range cons.InEnc {
			if cons.InEnc[c] && c < len(prod.OutEnc) && !prod.OutEnc[c] {
				t.Fatalf("%s InEnc[%d] set but producer %s OutEnc clear", cons.Name, c, prod.Name)
			}
		}
	}
}

func TestPlanInputImagePublic(t *testing.T) {
	m := buildSmall(t, models.ResNet18Arch(), 8)
	p := mustPlan(t, m, DefaultOptions())
	if countTrue(p.Layers[0].InEnc) != 0 {
		t.Fatal("network input image marked encrypted")
	}
	if p.InputEncrypted {
		t.Fatal("InputEncrypted set")
	}
}

func TestPlanLogitsPublic(t *testing.T) {
	m := buildSmall(t, models.VGG16Arch(), 9)
	p := mustPlan(t, m, DefaultOptions())
	last := p.Layers[len(p.Layers)-1]
	if countTrue(last.OutEnc) != 0 {
		t.Fatalf("final logits marked encrypted: %v", last.OutEnc)
	}
}

func TestPlanBoundaryOutputsEncrypted(t *testing.T) {
	m := buildSmall(t, models.VGG16Arch(), 10)
	p := mustPlan(t, m, DefaultOptions())
	first := p.Layers[0]
	if !allSet(first.OutEnc) {
		t.Fatal("first boundary layer output not fully encrypted — X public and Y plaintext would reveal the weights")
	}
}

func TestPlanResNetShortcutUnion(t *testing.T) {
	m := buildSmall(t, models.ResNet18Arch(), 11)
	p := mustPlan(t, m, DefaultOptions())
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	// find a projection shortcut and its producer
	var sc *LayerPlan
	for _, lp := range p.Layers {
		if lp.Spec.ShortcutOf != "" {
			sc = lp
			break
		}
	}
	if sc == nil {
		t.Fatal("no shortcut layer found")
	}
	// the shortcut's encrypted rows must be ciphertext in its input fmap
	for c, e := range sc.EncRows {
		if e && !sc.InEnc[c] {
			t.Fatalf("shortcut %s row %d encrypted but input channel plaintext", sc.Name, c)
		}
	}
}

func TestPlanWeightEncFraction(t *testing.T) {
	m := buildSmall(t, models.VGG16Arch(), 12)
	p := mustPlan(t, m, DefaultOptions())
	f := p.WeightEncFraction()
	// 50% SE plus four fully-encrypted boundary layers → fraction in (0.5, 0.75)
	if f <= 0.5 || f >= 0.8 {
		t.Fatalf("weight encryption fraction %v, want in (0.5, 0.8)", f)
	}
	p0 := mustPlan(t, m, Options{Ratio: 0, Metric: MetricL1})
	if p0.WeightEncFraction() != 0 {
		t.Fatalf("ratio-0 no-boundary fraction %v", p0.WeightEncFraction())
	}
	p1 := mustPlan(t, m, Options{Ratio: 1, FullFirstConv: 2, FullLastConv: 1, FullLastFC: 1, Metric: MetricL1})
	if p1.WeightEncFraction() != 1 {
		t.Fatalf("ratio-1 fraction %v", p1.WeightEncFraction())
	}
}

func TestPlanRatioSweepMonotoneTraffic(t *testing.T) {
	m := buildSmall(t, models.VGG16Arch(), 13)
	prev := -1.0
	for _, ratio := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		opts := DefaultOptions()
		opts.Ratio = ratio
		p := mustPlan(t, m, opts)
		f := p.WeightEncFraction()
		if f <= prev {
			t.Fatalf("encrypted fraction not increasing: %v at ratio %v (prev %v)", f, ratio, prev)
		}
		prev = f
	}
}

func TestPlanVerifyPropertyAcrossRatiosAndMetrics(t *testing.T) {
	m := buildSmall(t, models.ResNet34Arch(), 14)
	check := func(rawRatio uint8, rawMetric uint8) bool {
		opts := DefaultOptions()
		opts.Ratio = float64(rawRatio%101) / 100
		opts.Metric = Metric(rawMetric % 3)
		opts.Seed = uint64(rawRatio)
		p, err := NewPlan(m, opts)
		if err != nil {
			return false
		}
		return p.Verify() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPlanFromNormsValidation(t *testing.T) {
	arch := models.VGG16Arch()
	specs := []models.LayerSpec{arch.Specs[0]}
	if _, err := NewPlanFromNorms(arch, specs, nil, DefaultOptions()); err == nil {
		t.Fatal("mismatched norms accepted")
	}
	if _, err := NewPlanFromNorms(arch, specs, [][]float64{{1}}, DefaultOptions()); err == nil {
		t.Fatal("wrong norm length accepted")
	}
}

// TestPlanRejectsBadRatio: both planners fail with an error, not a
// panic in SelectRows, on a ratio outside [0,1]. NaN compares false
// against both bounds, so a check written as r < 0 || r > 1 lets it
// through.
func TestPlanRejectsBadRatio(t *testing.T) {
	m := buildSmall(t, models.VGG16Arch(), 1)
	arch := models.VGG16Arch()
	specs := []models.LayerSpec{arch.Specs[0]}
	norms := [][]float64{make([]float64, arch.Specs[0].InC)}
	for _, r := range []float64{math.NaN(), -0.1, 1.1} {
		opts := DefaultOptions()
		opts.Ratio = r
		if _, err := NewPlan(m, opts); err == nil {
			t.Errorf("NewPlan accepted ratio %v", r)
		}
		if _, err := NewPlanFromNorms(arch, specs, norms, opts); err == nil {
			t.Errorf("NewPlanFromNorms accepted ratio %v", r)
		}
	}
}
