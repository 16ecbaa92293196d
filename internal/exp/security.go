package exp

import (
	"bytes"
	"fmt"
	"io"

	"seal/internal/attack"
	"seal/internal/core"
	"seal/internal/dataset"
	"seal/internal/models"
	"seal/internal/parallel"
	"seal/internal/prng"
)

// SecurityConfig parameterizes the Figures 3-4 experiments. The paper
// trains full CIFAR-10 models; pure-Go single-thread training makes that
// intractable, so widths, sample counts and epochs are scaled down (see
// DESIGN.md). The orderings Figures 3-4 establish — white-box ≫ SEAL ≥
// black-box, with the crossover as the ratio grows — are preserved.
type SecurityConfig struct {
	Arches  []string // "vgg16", "resnet18", "resnet34"
	Scale   float64  // architecture width multiplier
	Victim  int      // victim training samples (paper: 45,000)
	Test    int      // held-out test samples for the accuracy metric
	Seeds   int      // adversary seed samples (paper: 5,000)
	Rounds  int      // Jacobian augmentation rounds (each doubles the set)
	Lambda  float32  // augmentation step
	Ratios  []float64
	Victims attack.TrainConfig
	Subs    attack.TrainConfig
	IFGSM   attack.IFGSMConfig
	Probe   int // adversarial probe samples (paper: 1,000)
	Seed    uint64
	// Data controls the synthetic task. Its difficulty (noise, shift)
	// calibrates the white-box/black-box accuracy gap: the adversary's
	// augmented set must be too small to match the victim, as CIFAR-10's
	// 45,000-vs-5,000 split is in the paper.
	Data dataset.Config
	// Progress, when non-nil, receives status lines during the run.
	Progress io.Writer
}

// DefaultSecurityConfig returns the scaled-down default recorded in
// EXPERIMENTS.md.
func DefaultSecurityConfig() SecurityConfig {
	victims := attack.DefaultTrainConfig()
	victims.Epochs = 16
	victims.LRDecayAt = []int{10}
	subs := attack.DefaultTrainConfig()
	subs.Epochs = 8
	subs.LRDecayAt = []int{6}
	return SecurityConfig{
		Arches:  []string{"vgg16", "resnet18", "resnet34"},
		Scale:   0.0625,
		Victim:  900,
		Test:    200,
		Seeds:   200,
		Rounds:  2,
		Lambda:  0.3,
		Ratios:  []float64{0.9, 0.7, 0.5, 0.4, 0.2, 0.1},
		Victims: victims,
		Subs:    subs,
		// The synthetic prototypes sit far apart, so the I-FGSM budget is
		// larger than for natural images; eps=1.2 puts the white-box
		// attack near the paper's ~90% and the black-box near its ~20%.
		IFGSM: attack.IFGSMConfig{Eps: 1.2, Alpha: 0.24, Iters: 10},
		Probe: 100,
		Seed:  7,
		Data:  harderData(),
	}
}

// harderData raises noise and jitter over the dataset defaults so that
// generalization stays data-hungry: the victim's training budget reaches
// high accuracy while the adversary's smaller augmented set cannot.
func harderData() dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Noise = 0.45
	cfg.Shift = 3
	cfg.Modes = 6
	return cfg
}

// QuickSecurityConfig shrinks the run for tests.
func QuickSecurityConfig() SecurityConfig {
	cfg := DefaultSecurityConfig()
	cfg.Arches = []string{"resnet18"}
	cfg.Victim = 300
	cfg.Test = 100
	cfg.Seeds = 40
	cfg.Rounds = 1
	cfg.Ratios = []float64{0.9, 0.5, 0.1}
	cfg.Victims.Epochs = 4
	cfg.Subs.Epochs = 4
	cfg.Probe = 40
	// the quick run keeps the easier task so a 300-sample victim is
	// meaningful
	cfg.Data = dataset.DefaultConfig()
	return cfg
}

// ModelSecurity holds one architecture's Figure 3 + Figure 4 series.
type ModelSecurity struct {
	Arch       string
	VictimAcc  float64
	WhiteAcc   float64
	BlackAcc   float64
	SEALAcc    map[float64]float64 // ratio → substitute accuracy
	WhiteTrans float64
	BlackTrans float64
	SEALTrans  map[float64]float64 // ratio → transferability
	AdvSamples int                 // augmented adversary set size
	LeakedFrac map[float64]float64 // ratio → leaked weight fraction
}

// SecurityResults carries the full Figures 3-4 dataset.
type SecurityResults struct {
	Cfg     SecurityConfig
	Models  []ModelSecurity
	Victims []*Victim // Victims[i] is the victim Models[i] attacked
}

// Victim is one architecture's trained victim, the network every
// substitute of the §III-B studies attacks. It keeps the data generator
// and random stream in the state training left them, and each study
// continues from private copies of both, so a study prints the numbers
// it would print after training a victim of its own. Studies only read
// a Victim. Two studies must not use one at the same time: a forward
// pass reuses the model's buffers.
type Victim struct {
	Name  string           // architecture as named in SecurityConfig.Arches
	Model *models.Model    // trained victim; Model.Arch is the scaled architecture
	Test  *dataset.Dataset // held-out test set
	Acc   float64          // Model's accuracy on Test
	gen   *dataset.Generator
	rng   prng.Source
}

// TrainVictim trains the victim of cfg.Arches[ai] on the streams
// RunSecurity gives that architecture: random stream cfg.Seed+ai·1000
// and data generator cfg.Seed+ai. With ai = 0 both are seeded cfg.Seed.
func TrainVictim(cfg SecurityConfig, ai int) (*Victim, error) {
	name := cfg.Arches[ai]
	arch, err := models.ArchByName(name)
	if err != nil {
		return nil, err
	}
	dataCfg := cfg.Data
	if dataCfg.Classes == 0 {
		dataCfg = harderData()
	}
	v := &Victim{
		Name: name,
		gen:  dataset.NewGenerator(dataCfg, cfg.Seed+uint64(ai)),
		rng:  *prng.New(cfg.Seed + uint64(ai)*1000),
	}
	train := v.gen.Sample(cfg.Victim)
	v.Test = v.gen.Sample(cfg.Test)
	logf(cfg.Progress, "[%s] training victim (%d samples, %d epochs)", name, cfg.Victim, cfg.Victims.Epochs)
	if v.Model, err = attack.TrainVictim(arch.Scale(cfg.Scale, 0), train, cfg.Victims, &v.rng); err != nil {
		return nil, err
	}
	v.Acc = attack.Accuracy(v.Model, v.Test)
	return v, nil
}

// streams returns private copies of v's data generator and random
// stream, for one study to draw from.
func (v *Victim) streams() (*dataset.Generator, *prng.Source) {
	rng := v.rng
	return v.gen.Clone(), &rng
}

// logf writes one progress line to w, if w is non-nil.
func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// RunSecurity executes the substitute-model study of §III-B for every
// configured architecture, producing both figures' series in one pass
// (the same substitute models feed both measurements, as in the paper).
// Each architecture's trained victim is returned in Victims, for the
// other studies to attack.
//
// Architectures are independent end to end — each gets its own PRNG
// stream (seeded by architecture index) and data generator — so the
// per-model loop fans out across the worker pool. Results land in
// index-addressed slots and, when running parallel, progress lines are
// buffered per model and flushed in architecture order after the
// barrier, so output and results are identical to a serial run.
func RunSecurity(cfg SecurityConfig) (*SecurityResults, error) {
	res := &SecurityResults{Cfg: cfg}
	res.Models = make([]ModelSecurity, len(cfg.Arches))
	res.Victims = make([]*Victim, len(cfg.Arches))
	// With one worker (or one model) stream progress directly; otherwise
	// concurrent models would interleave lines, so buffer per model.
	stream := parallel.Workers() == 1 || len(cfg.Arches) == 1
	bufs := make([]*bytes.Buffer, len(cfg.Arches))
	tasks := make([]func() error, len(cfg.Arches))
	for ai := range cfg.Arches {
		acfg := cfg
		if !stream && cfg.Progress != nil {
			bufs[ai] = &bytes.Buffer{}
			acfg.Progress = bufs[ai]
		}
		tasks[ai] = func() (err error) {
			if res.Victims[ai], err = TrainVictim(acfg, ai); err != nil {
				return err
			}
			res.Models[ai], err = securityModel(acfg, res.Victims[ai])
			return err
		}
	}
	err := parallel.DoErr(tasks...)
	if !stream && cfg.Progress != nil {
		for _, b := range bufs {
			if b != nil {
				cfg.Progress.Write(b.Bytes())
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// securityModel runs the white-box/black-box/SEAL study against one
// trained victim, writing progress lines to cfg.Progress.
func securityModel(cfg SecurityConfig, v *Victim) (ModelSecurity, error) {
	name, victim, testData := v.Name, v.Model, v.Test
	gen, rng := v.streams()
	seedData := gen.Sample(cfg.Seeds)
	probeData := gen.Sample(cfg.Probe)

	ms := ModelSecurity{
		Arch:       victim.Arch.Name,
		VictimAcc:  v.Acc,
		SEALAcc:    map[float64]float64{},
		SEALTrans:  map[float64]float64{},
		LeakedFrac: map[float64]float64{},
	}
	logf(cfg.Progress, "[%s] victim test accuracy %.3f", name, ms.VictimAcc)

	probeCfg := cfg.Subs
	probeCfg.Epochs = 2
	advData, err := attack.JacobianAugment(victim, seedData, cfg.Rounds, cfg.Lambda, probeCfg, rng.Fork())
	if err != nil {
		return ModelSecurity{}, err
	}
	ms.AdvSamples = advData.Len()
	logf(cfg.Progress, "[%s] adversary set augmented to %d samples", name, ms.AdvSamples)

	white, err := attack.WhiteBox(victim, rng.Fork())
	if err != nil {
		return ModelSecurity{}, err
	}
	ms.WhiteAcc = attack.Accuracy(white, testData)
	ms.WhiteTrans = attack.Transferability(victim, white, probeData, cfg.IFGSM)

	logf(cfg.Progress, "[%s] training black-box substitute", name)
	black, err := attack.BlackBox(victim, advData, cfg.Subs, rng.Fork())
	if err != nil {
		return ModelSecurity{}, err
	}
	ms.BlackAcc = attack.Accuracy(black, testData)
	ms.BlackTrans = attack.Transferability(victim, black, probeData, cfg.IFGSM)
	logf(cfg.Progress, "[%s] white acc %.3f trans %.3f | black acc %.3f trans %.3f",
		name, ms.WhiteAcc, ms.WhiteTrans, ms.BlackAcc, ms.BlackTrans)

	for _, ratio := range cfg.Ratios {
		opts := core.DefaultOptions()
		opts.Ratio = ratio
		plan, err := core.NewPlan(victim, opts)
		if err != nil {
			return ModelSecurity{}, err
		}
		sub, err := attack.SEALSubstitute(victim, plan, advData, cfg.Subs, rng.Fork())
		if err != nil {
			return ModelSecurity{}, err
		}
		ms.SEALAcc[ratio] = attack.Accuracy(sub, testData)
		ms.SEALTrans[ratio] = attack.Transferability(victim, sub, probeData, cfg.IFGSM)
		ms.LeakedFrac[ratio] = attack.LeakedFraction(plan)
		logf(cfg.Progress, "[%s] SEAL@%.0f%%: acc %.3f trans %.3f (leaked %.2f)",
			name, ratio*100, ms.SEALAcc[ratio], ms.SEALTrans[ratio], ms.LeakedFrac[ratio])
	}
	return ms, nil
}

// Figure3 formats the IP-stealing accuracy series (substitute inference
// accuracy vs encryption ratio, Figure 3).
func (r *SecurityResults) Figure3() *Table {
	t := &Table{Title: "Figure 3: inference accuracy of substitute models", Columns: nil}
	for _, m := range r.Models {
		t.Columns = append(t.Columns, m.Arch)
	}
	addSeries := func(label string, pick func(ModelSecurity) float64) {
		vals := make([]float64, len(r.Models))
		for i, m := range r.Models {
			vals[i] = pick(m)
		}
		t.AddRow(label, vals...)
	}
	addSeries("White-box", func(m ModelSecurity) float64 { return m.WhiteAcc })
	addSeries("Black-box", func(m ModelSecurity) float64 { return m.BlackAcc })
	for _, ratio := range r.Cfg.Ratios {
		ratio := ratio
		addSeries(fmt.Sprintf("SEAL-%.0f%%", ratio*100), func(m ModelSecurity) float64 { return m.SEALAcc[ratio] })
	}
	addSeries("Victim", func(m ModelSecurity) float64 { return m.VictimAcc })
	return t
}

// Figure4 formats the adversarial transferability series (Figure 4).
func (r *SecurityResults) Figure4() *Table {
	t := &Table{Title: "Figure 4: transferability of adversarial examples", Columns: nil}
	for _, m := range r.Models {
		t.Columns = append(t.Columns, m.Arch)
	}
	addSeries := func(label string, pick func(ModelSecurity) float64) {
		vals := make([]float64, len(r.Models))
		for i, m := range r.Models {
			vals[i] = pick(m)
		}
		t.AddRow(label, vals...)
	}
	addSeries("White-box", func(m ModelSecurity) float64 { return m.WhiteTrans })
	addSeries("Black-box", func(m ModelSecurity) float64 { return m.BlackTrans })
	for _, ratio := range r.Cfg.Ratios {
		ratio := ratio
		addSeries(fmt.Sprintf("SEAL-%.0f%%", ratio*100), func(m ModelSecurity) float64 { return m.SEALTrans[ratio] })
	}
	return t
}
