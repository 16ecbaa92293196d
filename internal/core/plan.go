package core

import (
	"fmt"

	"seal/internal/models"
	"seal/internal/prng"
)

// Options tunes plan construction. The zero value plus DefaultOptions
// matches the paper's configuration.
type Options struct {
	// Ratio is the fraction of kernel rows encrypted per SE layer. The
	// paper's quantitative security analysis settles on 0.5 (§III-B3).
	Ratio float64
	// Boundary layers receive full encryption to stop input/output
	// solving attacks (§III-B1): the first FullFirstConv CONV layers, the
	// last FullLastConv CONV layers and the last FullLastFC FC layers.
	// FullFirstFC plays the FullFirstConv role for networks that start
	// with FC layers (MLPs, unrolled RNNs — §III-A final paragraph).
	FullFirstConv int
	FullLastConv  int
	FullFirstFC   int
	FullLastFC    int
	Metric        Metric
	// Seed feeds MetricRandom.
	Seed uint64
}

// DefaultOptions returns the paper's configuration: 50 % ratio, full
// encryption on the first two CONV layers, the last CONV layer and the
// last FC layer, ℓ1 importance.
func DefaultOptions() Options {
	return Options{Ratio: 0.5, FullFirstConv: 2, FullLastConv: 1, FullLastFC: 1, Metric: MetricL1}
}

// DefaultMLPOptions adapts the boundary rule to all-FC networks: the
// first and last FC layers are fully encrypted, SE covers the rest.
func DefaultMLPOptions() Options {
	return Options{Ratio: 0.5, FullFirstFC: 1, FullLastFC: 1, Metric: MetricL1}
}

// LayerPlan is the SE decision for one weight layer.
type LayerPlan struct {
	Name  string
	Index int // position among weight layers
	Spec  models.LayerSpec
	// Full marks boundary layers whose weights are entirely encrypted.
	Full bool
	// EncRows marks encrypted kernel rows (one per input channel).
	EncRows []bool
	// InEnc marks input feature-map channels that must be ciphertext in
	// memory. InEnc covers EncRows and, where a feature map feeds several
	// consumers, the union of their demands.
	InEnc []bool
	// OutEnc marks output feature-map channels stored as ciphertext
	// (driven by the consumers of this layer's output).
	OutEnc []bool
	// Norms holds the per-row importance used for the selection.
	Norms []float64
}

// EncRowCount returns the number of encrypted kernel rows.
func (lp *LayerPlan) EncRowCount() int { return countTrue(lp.EncRows) }

// WeightEncBytes returns the encrypted weight bytes of the layer.
func (lp *LayerPlan) WeightEncBytes() int64 {
	perRow := int64(lp.Spec.OutC) * int64(maxInt(lp.Spec.K*lp.Spec.K, 1)) * 4
	return int64(lp.EncRowCount()) * perRow
}

// Plan is the complete smart-encryption decision for a network.
type Plan struct {
	Arch   *models.Arch
	Opts   Options
	Layers []*LayerPlan
	// InputEncrypted reports whether the network input image is stored
	// encrypted. It is always false: inference inputs are supplied by the
	// querying party and are not part of the model IP.
	InputEncrypted bool
}

// NewPlan computes the SE plan for a built model (the weights determine
// the ℓ1 ranking).
func NewPlan(m *models.Model, opts Options) (*Plan, error) {
	norms := make([][]float64, len(m.WeightLayers))
	rng := prng.New(opts.Seed)
	for i, w := range m.WeightLayers {
		norms[i] = RowNorms(w, opts.Metric, rng)
	}
	specs := make([]models.LayerSpec, len(m.WeightLayers))
	for i, w := range m.WeightLayers {
		specs[i] = w.Spec
	}
	return NewPlanFromNorms(m.Arch, specs, norms, opts)
}

// NewPlanFromNorms computes the SE plan from precomputed per-layer row
// norms; specs must be the CONV+FC layer specs in network order. This
// entry point lets the timing experiments plan full-size architectures
// without materializing full-size weights. It rejects a ratio outside
// [0,1], NaN included.
func NewPlanFromNorms(arch *models.Arch, specs []models.LayerSpec, norms [][]float64, opts Options) (*Plan, error) {
	if !(opts.Ratio >= 0 && opts.Ratio <= 1) {
		return nil, fmt.Errorf("core: encryption ratio %v out of [0,1]", opts.Ratio)
	}
	if len(specs) != len(norms) {
		return nil, fmt.Errorf("core: %d specs but %d norm vectors", len(specs), len(norms))
	}
	p := &Plan{Arch: arch, Opts: opts}
	convTotal, fcTotal := 0, 0
	for _, s := range specs {
		if s.Kind == models.KindConv {
			convTotal++
		} else {
			fcTotal++
		}
	}
	convIdx, fcIdx := 0, 0
	for i, s := range specs {
		if len(norms[i]) != s.InC {
			return nil, fmt.Errorf("core: layer %s has %d norms for %d input channels", s.Name, len(norms[i]), s.InC)
		}
		lp := &LayerPlan{Name: s.Name, Index: i, Spec: s, Norms: norms[i]}
		switch s.Kind {
		case models.KindConv:
			convIdx++
			lp.Full = convIdx <= opts.FullFirstConv || convIdx > convTotal-opts.FullLastConv
		case models.KindFC:
			fcIdx++
			lp.Full = fcIdx <= opts.FullFirstFC || fcIdx > fcTotal-opts.FullLastFC
		default:
			return nil, fmt.Errorf("core: %s is not a weight layer", s.Name)
		}
		if lp.Full {
			lp.EncRows = allTrue(s.InC)
		} else {
			lp.EncRows = SelectRows(norms[i], opts.Ratio)
		}
		p.Layers = append(p.Layers, lp)
	}
	p.propagate()
	return p, nil
}

// propagate computes feature-map channel encryption from the per-layer
// row selections. A layer's input channels must be ciphertext wherever a
// kernel row is encrypted (§III-A: "for each encrypted row, the SE
// scheme also encrypts one input channel ... corresponding to the
// encrypted row"). A produced feature map takes the union of its
// consumers' demands; fully-encrypted boundary layers also force their
// outputs fully encrypted so the adversary cannot solve boundary weights
// from known inputs/outputs — except the final logits, which the querying
// party observes by definition (the black-box interface).
func (p *Plan) propagate() {
	n := len(p.Layers)
	for i, lp := range p.Layers {
		// Base input demand: this layer's own encrypted rows — except the
		// network input image, which the adversary supplies and therefore
		// cannot be secret.
		if i == 0 {
			lp.InEnc = make([]bool, lp.Spec.InC)
		} else {
			lp.InEnc = append([]bool(nil), lp.EncRows...)
		}
		lp.OutEnc = make([]bool, lp.Spec.OutC)
	}
	// Consumer-driven propagation along the weight-layer chain. For the
	// channel bookkeeping the chain view suffices: pooling layers are
	// per-channel (ciphertext channels stay ciphertext through them), and
	// residual shortcuts consume the same feature map as the block's
	// first conv — the union below is exactly the shortcut-safe choice.
	consumers := p.fmapConsumers()
	for i, lp := range p.Layers {
		if lp.Full && i != n-1 {
			for c := range lp.OutEnc {
				lp.OutEnc[c] = true
			}
		}
		for _, ci := range consumers[i] {
			cons := p.Layers[ci]
			if cons.Spec.Kind == models.KindFC && lp.Spec.Kind == models.KindConv {
				// Flatten boundary: FC input features are conv channels ×
				// spatial positions. Feature j belongs to channel j/(H*W)
				// in channel-major layout; mark the output channel
				// encrypted if any of its flattened features is demanded.
				hw := cons.Spec.InC / lp.Spec.OutC
				if hw <= 0 {
					hw = 1
				}
				for j, e := range cons.InEnc {
					if e {
						ch := j / hw
						if ch < len(lp.OutEnc) {
							lp.OutEnc[ch] = true
						}
					}
				}
				continue
			}
			for c := range lp.OutEnc {
				if c < len(cons.InEnc) && cons.InEnc[c] {
					lp.OutEnc[c] = true
				}
			}
		}
	}
	// Feature maps with multiple consumers must satisfy all of them, and
	// a consumer's InEnc must match the stored feature map — lift OutEnc
	// back into every consumer's InEnc.
	for i, lp := range p.Layers {
		for _, ci := range consumers[i] {
			cons := p.Layers[ci]
			if cons.Spec.Kind == models.KindFC && lp.Spec.Kind == models.KindConv {
				hw := cons.Spec.InC / lp.Spec.OutC
				if hw <= 0 {
					hw = 1
				}
				for j := range cons.InEnc {
					ch := j / hw
					if ch < len(lp.OutEnc) && lp.OutEnc[ch] {
						cons.InEnc[j] = true
					}
				}
				continue
			}
			for c := range cons.InEnc {
				if c < len(lp.OutEnc) && lp.OutEnc[c] {
					cons.InEnc[c] = true
				}
			}
		}
	}
}

// fmapConsumers maps each weight layer index to the weight layers that
// read its output feature map. In the sequential chain that is the next
// weight layer; residual shortcut convs additionally read the feature
// map produced before their block's first conv.
func (p *Plan) fmapConsumers() [][]int {
	out := make([][]int, len(p.Layers))
	byName := map[string]int{}
	for i, lp := range p.Layers {
		byName[lp.Name] = i
	}
	// producer of the "current" chain fmap, walking weight layers
	prev := -1
	for i, lp := range p.Layers {
		if lp.Spec.ShortcutOf != "" {
			// shortcut reads the fmap its block's conv1 read
			if c1, ok := byName[lp.Spec.ShortcutOf+".conv1"]; ok {
				producer := c1 - 1
				// conv1 may itself be preceded by a shortcut of the
				// previous block in weight-layer order; skip those.
				for producer >= 0 && p.Layers[producer].Spec.ShortcutOf != "" {
					producer--
				}
				if producer >= 0 {
					out[producer] = append(out[producer], i)
				}
			}
			continue
		}
		if prev >= 0 {
			out[prev] = append(out[prev], i)
		}
		prev = i
	}
	return out
}

// EncryptedWeightBytes returns total encrypted weight bytes.
func (p *Plan) EncryptedWeightBytes() int64 {
	var n int64
	for _, lp := range p.Layers {
		n += lp.WeightEncBytes()
	}
	return n
}

// TotalWeightBytes returns total weight bytes of all planned layers.
func (p *Plan) TotalWeightBytes() int64 {
	var n int64
	for _, lp := range p.Layers {
		n += int64(lp.Spec.WeightCount()) * 4
	}
	return n
}

// WeightEncFraction returns the fraction of weight bytes encrypted.
func (p *Plan) WeightEncFraction() float64 {
	t := p.TotalWeightBytes()
	if t == 0 {
		return 0
	}
	return float64(p.EncryptedWeightBytes()) / float64(t)
}

// LayerByName returns the plan entry for a layer, or nil.
func (p *Plan) LayerByName(name string) *LayerPlan {
	for _, lp := range p.Layers {
		if lp.Name == name {
			return lp
		}
	}
	return nil
}

// Verify checks the SE security invariant on every layer: an encrypted
// kernel row's input channel must be ciphertext (otherwise the adversary
// observes X and X·ω and can solve for the row, §III-A). It returns the
// first violation found.
func (p *Plan) Verify() error {
	for i, lp := range p.Layers {
		if i == 0 {
			// The input image is public; the first layer must therefore be
			// fully encrypted if any of its rows is, which the boundary
			// rule guarantees. With the image public AND weights hidden,
			// the product Y=X·ω would reveal ω if Y were plaintext.
			if lp.EncRowCount() > 0 && !allSet(lp.OutEnc) && lp.Index != len(p.Layers)-1 {
				return fmt.Errorf("core: first layer %s has encrypted rows but plaintext output channels", lp.Name)
			}
			continue
		}
		for c, enc := range lp.EncRows {
			if enc && c < len(lp.InEnc) && !lp.InEnc[c] {
				return fmt.Errorf("core: layer %s row %d encrypted but its input channel is plaintext", lp.Name, c)
			}
		}
	}
	return nil
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func allTrue(n int) []bool {
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = true
	}
	return bs
}

func allSet(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
