// Package core implements SEAL's criticality-aware smart encryption (SE)
// scheme (paper §III): the relative-importance measurement of kernel
// rows by ℓ1-norm, the per-layer selection of which rows to encrypt at a
// given encryption ratio, the propagation of encryption to the feature-
// map channels those rows consume, and the EMalloc memory layout that
// tells the simulated memory system which bus lines carry ciphertext.
package core

import (
	"fmt"
	"sort"

	"seal/internal/models"
	"seal/internal/prng"
	"seal/internal/tensor"
)

// Metric selects how kernel-row importance is measured. The paper uses
// ℓ1 (sum of absolute weights, following the pruning literature [13]);
// the alternatives exist for the ablation benchmarks.
type Metric int

// Importance metrics.
const (
	MetricL1 Metric = iota
	MetricL2
	MetricRandom // ablation: ignore weights entirely
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case MetricL1:
		return "l1"
	case MetricL2:
		return "l2"
	case MetricRandom:
		return "random"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// RowNorms measures the importance of every kernel row of a weight
// layer. For a CONV layer with weights [OutC, InC, K, K], kernel row i
// (the paper's terminology, Figure 2) is the slice W[:, i, :, :] — all
// weights that multiply input channel i. For an FC layer [Out, In],
// kernel row i is weight column i. The returned slice has one norm per
// input channel.
func RowNorms(w *models.WeightLayer, metric Metric, rng *prng.Source) []float64 {
	spec := w.Spec
	norms := make([]float64, spec.InC)
	switch metric {
	case MetricRandom:
		if rng == nil {
			rng = prng.New(0)
		}
		for i := range norms {
			norms[i] = rng.Float64()
		}
		return norms
	}
	if w.Conv != nil {
		km := w.Conv.Weight.W // [OutC, InC, K, K]
		outC, inC, kk := spec.OutC, spec.InC, spec.K*spec.K
		for o := 0; o < outC; o++ {
			base := o * inC * kk
			for i := 0; i < inC; i++ {
				accumulate(norms, i, km.Data[base+i*kk:base+(i+1)*kk], metric)
			}
		}
	} else {
		wm := w.FC.Weight.W // [Out, In]
		out, in := spec.OutC, spec.InC
		for o := 0; o < out; o++ {
			row := wm.Data[o*in : (o+1)*in]
			for i, v := range row {
				if metric == MetricL2 {
					norms[i] += float64(v) * float64(v)
				} else {
					norms[i] += abs64(v)
				}
			}
		}
	}
	return norms
}

func accumulate(norms []float64, i int, vals []float32, metric Metric) {
	s := norms[i]
	if metric == MetricL2 {
		for _, v := range vals {
			s += float64(v) * float64(v)
		}
	} else {
		for _, v := range vals {
			s += abs64(v)
		}
	}
	norms[i] = s
}

func abs64(v float32) float64 {
	if v < 0 {
		return -float64(v)
	}
	return float64(v)
}

// SelectRows returns a bitmap marking the ceil(ratio*len(norms)) rows
// with the largest norms — the rows the SE scheme encrypts (§III-A:
// "encrypts partial kernel rows with the largest sums"). Ties break by
// lower index for determinism.
func SelectRows(norms []float64, ratio float64) []bool {
	if !(ratio >= 0 && ratio <= 1) { // also rejects NaN
		panic(fmt.Sprintf("core: encryption ratio %v out of [0,1]", ratio))
	}
	n := len(norms)
	k := int(float64(n)*ratio + 0.5)
	if k > n {
		k = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return norms[idx[a]] > norms[idx[b]] })
	enc := make([]bool, n)
	for _, i := range idx[:k] {
		enc[i] = true
	}
	return enc
}

// KernelRowL1 computes the ℓ1 norm of a single kernel row directly from
// a weight tensor — a convenience for tests and examples.
func KernelRowL1(w *tensor.Tensor, inChannel int) float64 {
	if w.Rank() != 4 {
		panic("core: KernelRowL1 wants [OutC, InC, K, K] weights")
	}
	outC, inC := w.Dim(0), w.Dim(1)
	kk := w.Dim(2) * w.Dim(3)
	var s float64
	for o := 0; o < outC; o++ {
		base := (o*inC + inChannel) * kk
		for _, v := range w.Data[base : base+kk] {
			s += abs64(v)
		}
	}
	return s
}
