package exp

import (
	"fmt"

	"seal/internal/attack"
	"seal/internal/core"
	"seal/internal/gpu"
	"seal/internal/models"
	"seal/internal/parallel"
	"seal/internal/trace"
)

// MetricAblation isolates the value of the ℓ1 criticality ranking
// (DESIGN.md §7): at a fixed encryption ratio, it builds SEAL
// substitutes of the trained victim v against plans that choose
// encrypted rows by ℓ1-norm, ℓ2-norm, or uniformly at random, and
// reports the substitute's test accuracy. If the pruning-literature
// insight behind SEAL holds, norm-based selection protects at least as
// well as random selection (the adversary's leaked rows are the least
// useful ones).
func MetricAblation(cfg SecurityConfig, v *Victim, ratio float64) (*Table, error) {
	victim, testData := v.Model, v.Test
	gen, rng := v.streams()
	advData := gen.Sample(cfg.Seeds * 4) // skip augmentation; fixed budget
	t := &Table{
		Title:   fmt.Sprintf("Ablation: importance metric at ratio %.0f%% (%s)", ratio*100, victim.Arch.Name),
		Columns: []string{"SubstituteAcc", "LeakedFrac"},
	}
	t.AddRow("Victim", v.Acc, 0)
	for _, metric := range []core.Metric{core.MetricL1, core.MetricL2, core.MetricRandom} {
		opts := core.DefaultOptions()
		opts.Ratio = ratio
		opts.Metric = metric
		opts.Seed = cfg.Seed
		plan, err := core.NewPlan(victim, opts)
		if err != nil {
			return nil, err
		}
		sub, err := attack.SEALSubstitute(victim, plan, advData, cfg.Subs, rng.Fork())
		if err != nil {
			return nil, err
		}
		t.AddRow(metric.String(), attack.Accuracy(sub, testData), attack.LeakedFraction(plan))
	}
	return t, nil
}

// L2Sweep measures full-direct-encryption VGG IPC (normalized to an
// unencrypted run with the same L2) across L2 slice sizes: larger caches
// absorb traffic before it reaches the engines, shrinking the encryption
// penalty — the cache-side dual of SEAL's bypass.
func L2Sweep(cfg TimingConfig, perSliceKB []int) (*Table, error) {
	t := &Table{
		Title:   "Ablation: L2 slice size vs full-direct-encryption cost (VGG-16)",
		Columns: []string{"NormIPC", "L2HitRate"},
	}
	arch := models.VGG16Arch()
	// Each (L2 size, mode) pair simulates independently; rows assemble
	// from index-addressed slots after the fan-out.
	bases := make([]*networkRun, len(perSliceKB))
	encs := make([]*networkRun, len(perSliceKB))
	var tasks []func() error
	for i, kb := range perSliceKB {
		i, kb := i, kb
		l2 := func(g *gpu.Config) { g.L2Slice.SizeBytes = kb * 1024 }
		tasks = append(tasks,
			func() (err error) {
				bases[i], err = runNetwork(cfg, arch, scheme{"Baseline", gpu.ModeNone, false}, l2)
				return
			},
			func() (err error) {
				encs[i], err = runNetwork(cfg, arch, scheme{"Direct", gpu.ModeDirect, false}, l2)
				return
			})
	}
	if err := parallel.DoErr(tasks...); err != nil {
		return nil, err
	}
	for i, kb := range perSliceKB {
		t.AddRow(fmt.Sprintf("L2=%dKB/slice", kb), encs[i].total.IPC/bases[i].total.IPC, encs[i].total.L2HitRate())
	}
	return t, nil
}

// Integrity measures the cost of authenticated memory (per-line MACs à
// la Yan et al. [24]) on top of encryption, with and without SEAL:
// bypassed lines skip both the engine and the MAC. The run is bound by
// the AES engines, so MACs move NormIPC by at most 0.001 and SEAL-D+MAC
// keeps SEAL-D's 1.30× over Direct+MAC (EXPERIMENTS.md).
func Integrity(cfg TimingConfig) (*Table, error) {
	t := &Table{
		Title:   "Ablation: memory authentication (per-line MACs) on VGG-16",
		Columns: []string{"NormIPC"},
	}
	arch := models.VGG16Arch()
	_, layout, traces, err := buildNetwork(cfg, arch)
	if err != nil {
		return nil, err
	}
	runWith := func(mode gpu.EncMode, protected gpu.EncFn, integrity bool) (float64, error) {
		g := gtx480(mode, protected, cfg.CounterKB)
		g.Integrity = integrity && mode != gpu.ModeNone
		sim, err := gpu.New(g)
		if err != nil {
			return 0, err
		}
		_, total, err := trace.RunNetwork(sim, traces)
		if err != nil {
			return 0, err
		}
		return total.IPC, nil
	}
	base, err := runWith(gpu.ModeNone, nil, false)
	if err != nil {
		return nil, err
	}
	for _, row := range []struct {
		label     string
		mode      gpu.EncMode
		selective bool
		integrity bool
	}{
		{"Direct", gpu.ModeDirect, false, false},
		{"Direct+MAC", gpu.ModeDirect, false, true},
		{"SEAL-D", gpu.ModeDirect, true, false},
		{"SEAL-D+MAC", gpu.ModeDirect, true, true},
	} {
		var fn gpu.EncFn
		if row.selective {
			fn = layout.Protected
		}
		ipc, err := runWith(row.mode, fn, row.integrity)
		if err != nil {
			return nil, err
		}
		t.AddRow(row.label, ipc/base)
	}
	return t, nil
}

// CounterGranularity sweeps the per-line counter size in counter mode:
// smaller counters pack more lines per counter block (split-counter
// designs), multiplying counter-cache reach and cutting counter-fetch
// traffic on the matmul workload.
func CounterGranularity(cfg TimingConfig, counterBytes []int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Ablation: counter bytes per line (matmul %d³, counter cache %dKB)", cfg.MatmulN, cfg.CounterKB),
		Columns: []string{"IPC", "CtrHitRate", "ExtraReads"},
	}
	for _, cb := range counterBytes {
		p := cfg.Trace
		a, b, c, _ := trace.MatmulRegions(cfg.MatmulN, p, true)
		streams, err := trace.Matmul(p, cfg.MatmulN, a, b, c)
		if err != nil {
			return nil, err
		}
		g := gtx480(gpu.ModeCounter, nil, cfg.CounterKB)
		g.Counter.CounterBytes = cb
		sim, err := gpu.New(g)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(streams)
		if err != nil {
			return nil, err
		}
		var extra uint64
		for _, ps := range res.Parts {
			extra += ps.ExtraCounterReads
		}
		t.AddRow(fmt.Sprintf("%dB/ctr", cb), res.IPC, res.CounterHitRate(), float64(extra))
	}
	return t, nil
}

// PruningPremise validates the §III-A foundation directly: it prunes
// (zeroes) a growing fraction of each layer's kernel rows from the
// trained victim v, choosing either the lowest-ℓ1 rows — the ones SEAL
// leaves unencrypted — or the highest-ℓ1 rows — the ones SEAL protects
// — and reports the surviving accuracy. SEAL is sound exactly when the
// low-norm column stays near the victim and the high-norm column
// collapses.
func PruningPremise(cfg SecurityConfig, v *Victim, fractions []float64) (*Table, error) {
	victim, testData := v.Model, v.Test
	t := &Table{
		Title:   fmt.Sprintf("Premise: prune low-l1 vs high-l1 kernel rows (%s)", victim.Arch.Name),
		Columns: []string{"PruneLowL1", "PruneHighL1"},
	}
	t.AddRow("fraction=0%", v.Acc, v.Acc)
	for _, f := range fractions {
		low, err := attack.PruneByImportance(victim, f, true, cfg.Seed)
		if err != nil {
			return nil, err
		}
		high, err := attack.PruneByImportance(victim, f, false, cfg.Seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("fraction=%.0f%%", f*100),
			attack.Accuracy(low, testData), attack.Accuracy(high, testData))
	}
	return t, nil
}
