package exp

import (
	"math"
	"os"
	"testing"
)

// refMode reports whether SEAL_SIM_REF=1 pins every run to the
// per-cycle reference scheduler, which silently disables stat mode; the
// engagement assertions below are meaningless there.
func refMode() bool { return os.Getenv("SEAL_SIM_REF") == "1" }

// expStatTol bounds the relative error of quick-scale FastSim estimates
// on the normalized (per-Baseline) metrics the figures report. The
// 54-cell paper-scale grid holds every sampled cell under 1.96% on these
// ratios (DESIGN.md §17); quick scale has shorter steady states and
// proportionally larger extrapolation noise, so the test gate is looser.
const expStatTol = 0.05

// fig7StatTol bounds the stat mode's relative error on the two Figure-7
// headline numbers, Direct VGG-16 and SEAL-D/Direct VGG-16. Quick scale
// gives 1.99% and 1.84% (DESIGN.md §17); the simulator is deterministic,
// so these do not depend on the host.
const fig7StatTol = 0.02

// quickArchTol returns the per-architecture quick-scale gate. The
// quarter-scale ResNets have many very short residual-block layers —
// each gives the extrapolator only a handful of measurement windows, so
// their quick-scale error runs to ~9% where quarter-scale VGG stays
// under 5%. Both are regression tripwires, not accuracy claims; the
// accuracy claim is the 2% paper-scale gate of sealsim -exp grid -stat.
func quickArchTol(arch string) float64 {
	if arch == "VGG-16" {
		return expStatTol
	}
	return 0.12
}

// TestFastSimNetworksTolerance runs the Figure-7 workload exactly and in
// statistical fast-sim mode at quick scale and bounds the error of every
// normalized (scheme, arch) cell, and of the Figure-7 headline numbers.
func TestFastSimNetworksTolerance(t *testing.T) {
	cfg := QuickTimingConfig()
	exact, err := RunNetworks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FastSim = true
	stat, err := RunNetworks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !refMode() && stat.MeanExactFrac() >= 0.999 {
		t.Fatalf("FastSim never engaged: mean exact fraction %v", stat.MeanExactFrac())
	}
	et, st := exact.Figure7(), stat.Figure7()
	for _, scheme := range exact.Schemes {
		for j, arch := range exact.Archs {
			want := et.Row(scheme).Values[j]
			got := st.Row(scheme).Values[j]
			tol := quickArchTol(arch)
			if e := relErrf(got, want); e > tol {
				t.Errorf("%s/%s: stat %.4f vs exact %.4f (err %.2f%% > %.0f%%)",
					scheme, arch, got, want, e*100, tol*100)
			}
		}
	}
	ed, _ := et.Cell("Direct", "VGG-16")
	es, _ := et.Cell("SEAL-D", "VGG-16")
	sd, _ := st.Cell("Direct", "VGG-16")
	ss, _ := st.Cell("SEAL-D", "VGG-16")
	if e := relErrf(sd, ed); e > fig7StatTol {
		t.Errorf("Direct VGG-16: stat %.4f vs exact %.4f (err %.2f%% > %.0f%%)", sd, ed, e*100, fig7StatTol*100)
	}
	if e := relErrf(ss/sd, es/ed); e > fig7StatTol {
		t.Errorf("SEAL-D/Direct VGG-16: stat %.4f vs exact %.4f (err %.2f%% > %.0f%%)", ss/sd, es/ed, e*100, fig7StatTol*100)
	}
}

// TestRatioSweepFastSimMonotone: the ratio ablation must stay monotone
// under statistical estimates — more encryption never speeds SEAL up.
func TestRatioSweepFastSimMonotone(t *testing.T) {
	cfg := QuickTimingConfig()
	cfg.FastSim = true
	tab, err := RatioSweep(cfg, []float64{0.2, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	low, _ := tab.Cell("ratio=20%", "SEAL-D")
	high, _ := tab.Cell("ratio=80%", "SEAL-D")
	// 1% slack: these are estimates, not bit-exact counts.
	if low < high*0.99 {
		t.Fatalf("more encryption should not be faster: 20%%=%v 80%%=%v", low, high)
	}
}

// TestL2SweepFastSimOrdering: the cache-size ablation's direction — a
// larger L2 absorbs traffic before the engines and shrinks the direct-
// encryption penalty — must survive statistical estimation.
func TestL2SweepFastSimOrdering(t *testing.T) {
	cfg := QuickTimingConfig()
	cfg.FastSim = true
	tab, err := L2Sweep(cfg, []int{64, 512})
	if err != nil {
		t.Fatal(err)
	}
	small, _ := tab.Cell("L2=64KB/slice", "NormIPC")
	big, _ := tab.Cell("L2=512KB/slice", "NormIPC")
	if big < small*0.99 {
		t.Fatalf("larger L2 should not raise the encryption penalty: 64KB=%v 512KB=%v", small, big)
	}
	hs, _ := tab.Cell("L2=64KB/slice", "L2HitRate")
	hb, _ := tab.Cell("L2=512KB/slice", "L2HitRate")
	if hb <= hs {
		t.Fatalf("L2 hit rate not increasing with size: %v vs %v", hs, hb)
	}
}

// TestGridSmokeStat runs a reduced sweep at quick scale in stat mode,
// vgg16 × ratios {0.3, 0.7} × engines {1, 2} × L2 {128, 512} KB with
// every second cell re-run exactly, and checks the result plumbing end
// to end (cell metrics, validation fields, aggregates) and the sampled
// error against the quick-scale tolerance. Speed is not gated: quick-scale
// cells are too short for the measurement windows to pay off.
func TestGridSmokeStat(t *testing.T) {
	cfg := QuickTimingConfig()
	spec := GridSpec{
		Ratios:      []float64{0.3, 0.7},
		Archs:       []string{"vgg16"},
		Engines:     []int{1, 2},
		L2KB:        []int{128, 512},
		SampleEvery: 2,
	}
	res, err := Grid(cfg, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 8 || !res.Stat {
		t.Fatalf("cells = %d stat = %v", len(res.Cells), res.Stat)
	}
	minSp, sumSp := math.Inf(1), 0.0
	for i, c := range res.Cells {
		if c.Sampled != (i%2 == 0) {
			t.Fatalf("cell %d: sampled = %v, want every second cell", i, c.Sampled)
		}
		if c.BaselineIPC <= 0 || c.DirectIPC <= 0 || c.SealIPC <= 0 {
			t.Fatalf("cell %d: non-positive IPC %+v", i, c)
		}
		if c.NormDirectIPC <= 0 || c.NormDirectIPC > 1.05 {
			t.Fatalf("cell %d: NormDirectIPC %v outside (0, 1.05]", i, c.NormDirectIPC)
		}
		if c.SealOverDirect < 0.95 {
			t.Fatalf("cell %d: SEAL slower than full encryption: %v", i, c.SealOverDirect)
		}
		if c.ExactFrac <= 0 || c.ExactFrac > 1 {
			t.Fatalf("cell %d: ExactFrac %v outside (0, 1]", i, c.ExactFrac)
		}
		if !c.Sampled {
			continue
		}
		if c.ExactSeconds <= 0 || c.Speedup <= 0 {
			t.Fatalf("cell %d: sampled cell validation fields: %+v", i, c)
		}
		minSp = math.Min(minSp, c.Speedup)
		sumSp += c.Speedup
	}
	if res.Sampled != 4 {
		t.Fatalf("sampled %d cells, want 4", res.Sampled)
	}
	if res.MaxErr > expStatTol {
		t.Fatalf("sampled relative error %.4f above quick-scale tolerance %v", res.MaxErr, expStatTol)
	}
	if res.MinSpeedup != minSp || res.MeanSpeedup != sumSp/4 {
		t.Fatalf("aggregates %v/%v want %v/%v", res.MinSpeedup, res.MeanSpeedup, minSp, sumSp/4)
	}
}

func TestGridSpecValidate(t *testing.T) {
	good := DefaultGridSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*GridSpec){
		"empty archs":    func(s *GridSpec) { s.Archs = nil },
		"zero ratio":     func(s *GridSpec) { s.Ratios = []float64{0} },
		"ratio above 1":  func(s *GridSpec) { s.Ratios = []float64{1.5} },
		"zero engines":   func(s *GridSpec) { s.Engines = []int{0} },
		"zero l2":        func(s *GridSpec) { s.L2KB = []int{0} },
		"negative every": func(s *GridSpec) { s.SampleEvery = -1 },
	} {
		s := DefaultGridSpec()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
}
