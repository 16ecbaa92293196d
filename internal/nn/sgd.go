package nn

import (
	"math"

	"seal/internal/parallel"
	"seal/internal/tensor"
)

// SGD is stochastic gradient descent with classical momentum and L2
// weight decay. It honours per-parameter freeze masks: masked-out
// elements receive no update, which is how the SEAL adversary keeps
// leaked plaintext weights fixed while fine-tuning the rest.
type SGD struct {
	LR          float32
	Momentum    float32
	WeightDecay float32

	velocity map[*Param]*tensor.Tensor
}

// NewSGD constructs an optimizer with the given hyper-parameters.
func NewSGD(lr, momentum, weightDecay float32) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay, velocity: map[*Param]*tensor.Tensor{}}
}

// Step applies one update to every parameter and clears the gradients.
// The per-element Mask/Momentum branches of the historical loop are
// hoisted into four specialized paths in stepOne, and the independent
// per-parameter updates fan out across the worker pool.
func (o *SGD) Step(params []*Param) {
	if o.Momentum != 0 {
		// Lazy velocity creation is a map write, so it must happen
		// serially before the parameters fan out.
		for _, p := range params {
			if o.velocity[p] == nil {
				o.velocity[p] = tensor.New(p.W.Shape...)
			}
		}
	}
	stepParams(o, params)
}

// stepParams applies o.stepOne to every parameter and clears its
// gradient. Parameters are independent — no update reads another
// parameter's state, and Step materializes the velocity state before
// the fan-out — so the fan-out across the worker pool is race-free and
// deterministic for free: each element's arithmetic is identical
// regardless of which worker runs it or in what order. Workers()==1
// takes the plain loop (no closure), keeping the warm train step
// allocation-free on a single-core host.
func stepParams(o *SGD, params []*Param) {
	if parallel.Workers() == 1 || len(params) == 1 {
		for _, p := range params {
			o.stepOne(p)
			p.ZeroGrad()
		}
		return
	}
	parallel.For(len(params), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o.stepOne(params[i])
			params[i].ZeroGrad()
		}
	})
}

// stepOne updates one parameter for stepParams. Each range kernel
// performs exactly the arithmetic of the historical per-element loop —
// g := grad + wd*w, optional velocity update, w -= lr*g — on a dense
// index range, so hoisting the branches changes branch-prediction
// traffic, never the float operation sequence of any element.
func (o *SGD) stepOne(p *Param) {
	w, g := p.W.Data, p.Grad.Data
	switch {
	case o.Momentum == 0 && p.Mask == nil:
		sgdPlainRange(w, g, o.LR, o.WeightDecay, 0, len(w))
	case o.Momentum == 0:
		m := p.Mask.Data
		for lo, hi := nextRun(m, 0); lo < len(m); lo, hi = nextRun(m, hi) {
			sgdPlainRange(w, g, o.LR, o.WeightDecay, lo, hi)
		}
	case p.Mask == nil:
		sgdMomentumRange(w, g, o.velocity[p].Data, o.LR, o.Momentum, o.WeightDecay, 0, len(w))
	default:
		v, m := o.velocity[p].Data, p.Mask.Data
		for lo, hi := nextRun(m, 0); lo < len(m); lo, hi = nextRun(m, hi) {
			sgdMomentumRange(w, g, v, o.LR, o.Momentum, o.WeightDecay, lo, hi)
		}
	}
}

// nextRun returns the next maximal run [lo, hi) of unmasked (nonzero)
// mask entries at or after i; lo == len(mask) when none remain. The
// masked paths of stepOne use it to hoist the per-element mask branch
// out of the update loops: each run is handed to the dense range
// kernel, which performs exactly the arithmetic the historical
// per-element loop did on the unmasked elements.
func nextRun(mask []float32, i int) (lo, hi int) {
	for i < len(mask) && mask[i] == 0 {
		i++
	}
	lo = i
	for i < len(mask) && mask[i] != 0 {
		i++
	}
	return lo, i
}

// sgdPlainRange is the momentum-free update kernel for elements
// [lo, hi).
func sgdPlainRange(w, grad []float32, lr, wd float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		g := grad[i] + wd*w[i]
		w[i] -= lr * g
	}
}

// sgdMomentumRange is the classical-momentum update kernel for
// elements [lo, hi).
func sgdMomentumRange(w, grad, v []float32, lr, mom, wd float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		g := grad[i] + wd*w[i]
		v[i] = mom*v[i] + g
		w[i] -= lr * v[i]
	}
}

// ZeroGrads clears every gradient without updating weights.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// ClipGradNorm scales gradients so their global L2 norm does not exceed
// maxNorm; it returns the pre-clip norm. Gradient clipping keeps the
// small-width substitute-model training runs stable.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		sq += p.Grad.SqSum()
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := float32(maxNorm / norm)
		for _, p := range params {
			p.Grad.Scale(scale)
		}
	}
	return norm
}
