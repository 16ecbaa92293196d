// Package dataset generates the synthetic CIFAR-10 stand-in used by the
// security experiments (paper §III-B trains on CIFAR-10; see DESIGN.md
// for the substitution rationale). Each of the ten classes is a smooth
// random spatial prototype; samples are noisy, randomly shifted draws
// around their prototype. The resulting task is learnable but not
// trivial, which preserves the white-box ≫ SEAL ≥ black-box accuracy
// ordering the paper's Figures 3-4 depend on.
package dataset

import (
	"fmt"
	"math"

	"seal/internal/prng"
	"seal/internal/tensor"
)

// Config parameterizes synthetic data generation.
type Config struct {
	Classes int     // number of classes (10 for the CIFAR-10 stand-in)
	C       int     // image channels (3)
	H, W    int     // spatial size (32×32 for the stand-in)
	Noise   float64 // per-pixel Gaussian noise stddev
	Shift   int     // max |dx|,|dy| random translation of the prototype
	Freqs   int     // number of sinusoidal components per prototype channel
	// Modes is the number of sub-prototypes per class (≥1). Multi-modal
	// classes make the task's sample complexity grow smoothly with the
	// training budget — single-prototype classes exhibit an unrealistic
	// all-or-nothing learning transition.
	Modes int
}

// DefaultConfig matches the CIFAR-10 geometry with a noise level tuned
// so that small CNNs reach high-but-not-perfect accuracy.
func DefaultConfig() Config {
	return Config{Classes: 10, C: 3, H: 32, W: 32, Noise: 0.35, Shift: 2, Freqs: 4, Modes: 2}
}

// Dataset is a labeled image set in NCHW layout.
type Dataset struct {
	Images *tensor.Tensor // [N, C, H, W]
	Labels []int
	Cfg    Config
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

// Generator produces samples for a fixed set of class prototypes.
type Generator struct {
	Cfg        Config
	prototypes *tensor.Tensor // [Classes, C, H, W]
	rng        *prng.Source
}

// NewGenerator builds class prototypes deterministically from seed.
func NewGenerator(cfg Config, seed uint64) *Generator {
	if cfg.Classes <= 0 || cfg.C <= 0 || cfg.H <= 0 || cfg.W <= 0 {
		panic(fmt.Sprintf("dataset: invalid config %+v", cfg))
	}
	if cfg.Modes <= 0 {
		cfg.Modes = 1
	}
	r := prng.New(seed)
	g := &Generator{Cfg: cfg, rng: r.Fork()}
	g.prototypes = tensor.New(cfg.Classes*cfg.Modes, cfg.C, cfg.H, cfg.W)
	protoRng := r.Fork()
	for k := 0; k < cfg.Classes*cfg.Modes; k++ {
		for c := 0; c < cfg.C; c++ {
			// superpose a few random low-frequency sinusoids
			type comp struct{ fx, fy, phase, amp float64 }
			comps := make([]comp, cfg.Freqs)
			for i := range comps {
				comps[i] = comp{
					fx:    (protoRng.Float64()*3 + 0.5) * 2 * math.Pi / float64(cfg.W),
					fy:    (protoRng.Float64()*3 + 0.5) * 2 * math.Pi / float64(cfg.H),
					phase: protoRng.Float64() * 2 * math.Pi,
					amp:   protoRng.Float64()*0.5 + 0.25,
				}
			}
			for y := 0; y < cfg.H; y++ {
				for x := 0; x < cfg.W; x++ {
					var v float64
					for _, cm := range comps {
						v += cm.amp * math.Sin(cm.fx*float64(x)+cm.fy*float64(y)+cm.phase)
					}
					g.prototypes.Set(float32(v), k, c, y, x)
				}
			}
		}
	}
	return g
}

// Clone returns a generator with g's prototypes that continues from a
// copy of g's random stream: it draws the samples g would draw next,
// and drawing from either one leaves the other unchanged.
func (g *Generator) Clone() *Generator {
	rng := *g.rng
	return &Generator{Cfg: g.Cfg, prototypes: g.prototypes, rng: &rng}
}

// Sample draws n labeled samples with balanced classes (round-robin).
func (g *Generator) Sample(n int) *Dataset {
	cfg := g.Cfg
	ds := &Dataset{Images: tensor.New(n, cfg.C, cfg.H, cfg.W), Labels: make([]int, n), Cfg: cfg}
	per := cfg.C * cfg.H * cfg.W
	for i := 0; i < n; i++ {
		k := i % cfg.Classes
		ds.Labels[i] = k
		mode := 0
		if cfg.Modes > 1 {
			mode = g.rng.Intn(cfg.Modes)
		}
		dx, dy := 0, 0
		if cfg.Shift > 0 {
			dx = g.rng.Intn(2*cfg.Shift+1) - cfg.Shift
			dy = g.rng.Intn(2*cfg.Shift+1) - cfg.Shift
		}
		dst := ds.Images.Data[i*per : (i+1)*per]
		proto := k*cfg.Modes + mode
		src := g.prototypes.Data[proto*per : (proto+1)*per]
		for c := 0; c < cfg.C; c++ {
			for y := 0; y < cfg.H; y++ {
				sy := y + dy
				if sy < 0 {
					sy = 0
				} else if sy >= cfg.H {
					sy = cfg.H - 1
				}
				for x := 0; x < cfg.W; x++ {
					sx := x + dx
					if sx < 0 {
						sx = 0
					} else if sx >= cfg.W {
						sx = cfg.W - 1
					}
					v := float64(src[(c*cfg.H+sy)*cfg.W+sx]) + g.rng.NormFloat64()*cfg.Noise
					dst[(c*cfg.H+y)*cfg.W+x] = float32(v)
				}
			}
		}
	}
	return ds
}

// Subset returns a copy containing the given sample indices, which must
// be non-empty.
func (d *Dataset) Subset(idx []int) *Dataset {
	if len(idx) == 0 {
		panic("dataset: empty subset")
	}
	cfg := d.Cfg
	per := cfg.C * cfg.H * cfg.W
	out := &Dataset{Images: tensor.New(len(idx), cfg.C, cfg.H, cfg.W), Labels: make([]int, len(idx)), Cfg: cfg}
	for i, j := range idx {
		copy(out.Images.Data[i*per:(i+1)*per], d.Images.Data[j*per:(j+1)*per])
		out.Labels[i] = d.Labels[j]
	}
	return out
}

// Batch extracts samples [lo, hi) as a training batch.
func (d *Dataset) Batch(lo, hi int) (*tensor.Tensor, []int) {
	if lo < 0 || hi > d.Len() || lo >= hi {
		panic(fmt.Sprintf("dataset: bad batch range [%d,%d) of %d", lo, hi, d.Len()))
	}
	cfg := d.Cfg
	per := cfg.C * cfg.H * cfg.W
	x := tensor.New(hi-lo, cfg.C, cfg.H, cfg.W)
	copy(x.Data, d.Images.Data[lo*per:hi*per])
	return x, d.Labels[lo:hi]
}

// Shuffle permutes samples in place.
func (d *Dataset) Shuffle(r *prng.Source) {
	cfg := d.Cfg
	per := cfg.C * cfg.H * cfg.W
	tmp := make([]float32, per)
	r.Shuffle(d.Len(), func(i, j int) {
		d.Labels[i], d.Labels[j] = d.Labels[j], d.Labels[i]
		a := d.Images.Data[i*per : (i+1)*per]
		b := d.Images.Data[j*per : (j+1)*per]
		copy(tmp, a)
		copy(a, b)
		copy(b, tmp)
	})
}

// Append concatenates other onto d (both must share Cfg geometry).
func (d *Dataset) Append(other *Dataset) *Dataset {
	if d.Cfg != other.Cfg {
		panic("dataset: Append config mismatch")
	}
	cfg := d.Cfg
	per := cfg.C * cfg.H * cfg.W
	n := d.Len() + other.Len()
	out := &Dataset{Images: tensor.New(n, cfg.C, cfg.H, cfg.W), Labels: make([]int, 0, n), Cfg: cfg}
	copy(out.Images.Data, d.Images.Data[:d.Len()*per])
	copy(out.Images.Data[d.Len()*per:], other.Images.Data[:other.Len()*per])
	out.Labels = append(out.Labels, d.Labels...)
	out.Labels = append(out.Labels, other.Labels...)
	return out
}
