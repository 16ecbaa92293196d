// Package nn implements the neural-network substrate for the SEAL
// reproduction: convolution, pooling, fully-connected, batch-norm and
// activation layers with full backpropagation, an SGD optimizer with
// per-element freeze masks (required for SEAL substitute-model
// fine-tuning, paper §III-B1), and softmax cross-entropy loss.
//
// Data layout is NCHW: convolutional activations are [N, C, H, W] and
// fully-connected activations are [N, D]. Channel-major layout matters
// here because SEAL encrypts feature maps at channel granularity.
package nn

import (
	"fmt"
	"math"

	"seal/internal/prng"
	"seal/internal/tensor"
)

// Param is one learnable tensor together with its gradient accumulator
// and an optional freeze mask.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
	// Mask, when non-nil, has the same size as W; entries equal to 0 mark
	// frozen weights whose gradient is discarded by the optimizer. SEAL's
	// adversary uses this to keep leaked (unencrypted) weights fixed while
	// fine-tuning the unknown ones (paper §III-B1).
	Mask *tensor.Tensor
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// FreezeAll installs a mask freezing every element.
func (p *Param) FreezeAll() {
	p.Mask = tensor.New(p.W.Shape...)
}

// Module is a differentiable network component. Forward consumes the
// layer input and caches whatever Backward needs; Backward consumes
// dL/d(output) and returns dL/d(input), accumulating parameter gradients.
type Module interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Named is implemented by modules that carry a human-readable layer name.
type Named interface{ LayerName() string }

// heFanIn initializes w with He-normal values for the given fan-in, the
// initialization the paper's adversary uses for unknown weights ([7]).
func heFanIn(r *prng.Source, w *tensor.Tensor, fanIn int) {
	std := float64(0)
	if fanIn > 0 {
		std = math.Sqrt(2.0 / float64(fanIn))
	}
	for i := range w.Data {
		w.Data[i] = float32(r.NormFloat64() * std)
	}
}

// shapeCheck panics with a descriptive message when an activation does
// not match the expected shape prefix.
func shapeCheck(what string, x *tensor.Tensor, rank int) {
	if x.Rank() != rank {
		panic(fmt.Sprintf("nn: %s expected rank-%d input, got %v", what, rank, x.Shape))
	}
}

// ensureShaped readies a reusable workspace tensor for the given shape:
// if ws has capacity for the element count its storage is re-sliced to
// exactly that length and its shape header refreshed in place, otherwise
// a fresh tensor is allocated (first call, or growth past the widest
// batch seen). Shrinking reuses the same storage, so a serving engine
// that mixes batch sizes under one ceiling stays allocation-free.
// Contents are NOT cleared — callers either overwrite every element or
// zero explicitly, which is what keeps a reused buffer indistinguishable
// from a fresh allocation (DESIGN §11/§13 ownership rules).
func ensureShaped(ws *tensor.Tensor, shape []int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if ws == nil || cap(ws.Data) < n {
		return tensor.New(shape...)
	}
	ws.Data = ws.Data[:n]
	ws.Shape = append(ws.Shape[:0], shape...)
	return ws
}

// growFloats returns buf if it already holds at least n floats, or a
// fresh slice otherwise. Contents are unspecified.
func growFloats(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}
