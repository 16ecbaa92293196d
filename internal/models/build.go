package models

import (
	"fmt"

	"seal/internal/nn"
	"seal/internal/prng"
	"seal/internal/tensor"
)

// WeightLayer is one CONV or FC layer of a built model, pairing the
// geometry spec with the live nn layer holding the weights. SEAL's
// criticality analysis iterates these in order.
type WeightLayer struct {
	Name string
	Spec LayerSpec
	Conv *nn.Conv2D // non-nil for CONV layers
	FC   *nn.Linear // non-nil for FC layers
}

// Model is a trainable network built from an Arch.
type Model struct {
	Arch         *Arch
	Net          *nn.Sequential
	WeightLayers []*WeightLayer
}

// Build constructs a trainable model from the architecture. BatchNorm
// follows every convolution (the standard recipe for training VGG and
// ResNet variants on CIFAR from scratch) and ReLU follows every
// normalization; neither affects the geometry the timing experiments
// use.
func Build(a *Arch, r *prng.Source) (*Model, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	m := &Model{Arch: a, Net: nn.NewSequential(a.Name)}
	flattened := false
	i := 0
	fcSeen, fcTotal := 0, len(a.FCSpecs())
	for i < len(a.Specs) {
		s := a.Specs[i]
		switch {
		case s.Kind == KindConv && s.Residual:
			// consume conv1, conv2 and an optional shortcut
			if i+1 >= len(a.Specs) || a.Specs[i+1].Kind != KindConv || !a.Specs[i+1].Residual {
				return nil, fmt.Errorf("models: residual conv %s not followed by conv2", s.Name)
			}
			c2 := a.Specs[i+1]
			var sc *LayerSpec
			next := i + 2
			if next < len(a.Specs) && a.Specs[next].ShortcutOf != "" {
				sc = &a.Specs[next]
				next++
			}
			blk := &nn.ResidualBlock{
				Name:  blockOf(s.Name),
				Conv1: nn.NewConv2D(s.Name, r, s.InC, s.OutC, s.K, s.Stride, s.Pad, s.InH, s.InW),
				BN1:   nn.NewBatchNorm2D(s.Name+".bn", s.OutC),
				Relu1: nn.NewReLU(s.Name + ".relu"),
			}
			blk.Conv2 = nn.NewConv2D(c2.Name, r, c2.InC, c2.OutC, c2.K, c2.Stride, c2.Pad, c2.InH, c2.InW)
			blk.BN2 = nn.NewBatchNorm2D(c2.Name+".bn", c2.OutC)
			m.addWeightLayer(s, blk.Conv1, nil)
			m.addWeightLayer(c2, blk.Conv2, nil)
			if sc != nil {
				blk.Shortcut = nn.NewConv2D(sc.Name, r, sc.InC, sc.OutC, sc.K, sc.Stride, sc.Pad, sc.InH, sc.InW)
				blk.ShortcutBN = nn.NewBatchNorm2D(sc.Name+".bn", sc.OutC)
				m.addWeightLayer(*sc, blk.Shortcut, nil)
			}
			m.Net.Add(blk)
			i = next
		case s.Kind == KindConv:
			conv := nn.NewConv2D(s.Name, r, s.InC, s.OutC, s.K, s.Stride, s.Pad, s.InH, s.InW)
			m.Net.Add(conv)
			m.Net.Add(nn.NewBatchNorm2D(s.Name+".bn", s.OutC))
			m.Net.Add(nn.NewReLU(s.Name + ".relu"))
			m.addWeightLayer(s, conv, nil)
			i++
		case s.Kind == KindPool:
			m.Net.Add(nn.NewMaxPool2D(s.Name, s.K, s.Stride))
			i++
		case s.Kind == KindGlobalAvgPool:
			m.Net.Add(nn.NewAvgPool2D(s.Name, s.K, s.K))
			i++
		case s.Kind == KindFC:
			if !flattened {
				m.Net.Add(nn.NewFlatten("flatten"))
				flattened = true
			}
			fc := nn.NewLinear(s.Name, r, s.InC, s.OutC)
			m.Net.Add(fc)
			fcSeen++
			if fcSeen < fcTotal {
				m.Net.Add(nn.NewReLU(s.Name + ".relu"))
			}
			m.addWeightLayer(s, nil, fc)
			i++
		default:
			return nil, fmt.Errorf("models: unhandled spec %+v", s)
		}
	}
	return m, nil
}

func (m *Model) addWeightLayer(s LayerSpec, conv *nn.Conv2D, fc *nn.Linear) {
	m.WeightLayers = append(m.WeightLayers, &WeightLayer{Name: s.Name, Spec: s, Conv: conv, FC: fc})
}

// Params returns all learnable parameters.
func (m *Model) Params() []*nn.Param { return m.Net.Params() }

// Forward runs the network on a batch [N, C, H, W] and returns logits.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return m.Net.Forward(x, train)
}

// Backward propagates the loss gradient.
func (m *Model) Backward(grad *tensor.Tensor) *tensor.Tensor { return m.Net.Backward(grad) }

// Clone builds a structurally identical model and copies every weight,
// mask and batch-norm running statistic into it. Used to materialize the
// paper's white-box substitute model (an exact copy of the victim).
func (m *Model) Clone(r *prng.Source) (*Model, error) {
	c, err := Build(m.Arch, r)
	if err != nil {
		return nil, err
	}
	if err := c.CopyFrom(m); err != nil {
		return nil, err
	}
	return c, nil
}

// CopyFrom copies parameters and batch-norm running statistics from src,
// which must have an identical architecture.
func (m *Model) CopyFrom(src *Model) error {
	sp, dp := src.Params(), m.Params()
	if len(sp) != len(dp) {
		return fmt.Errorf("models: CopyFrom parameter count mismatch: %d vs %d", len(sp), len(dp))
	}
	for i := range sp {
		if !tensor.SameShape(sp[i].W, dp[i].W) {
			return fmt.Errorf("models: CopyFrom shape mismatch at %s", sp[i].Name)
		}
		copy(dp[i].W.Data, sp[i].W.Data)
		if sp[i].Mask != nil {
			dp[i].Mask = sp[i].Mask.Clone()
		} else {
			dp[i].Mask = nil
		}
	}
	var srcBNs, dstBNs []*nn.BatchNorm2D
	nn.WalkModules(src.Net, func(mod nn.Module) {
		if bn, ok := mod.(*nn.BatchNorm2D); ok {
			srcBNs = append(srcBNs, bn)
		}
	})
	nn.WalkModules(m.Net, func(mod nn.Module) {
		if bn, ok := mod.(*nn.BatchNorm2D); ok {
			dstBNs = append(dstBNs, bn)
		}
	})
	if len(srcBNs) != len(dstBNs) {
		return fmt.Errorf("models: CopyFrom BN count mismatch: %d vs %d", len(srcBNs), len(dstBNs))
	}
	for i := range srcBNs {
		copy(dstBNs[i].RunningMean.Data, srcBNs[i].RunningMean.Data)
		copy(dstBNs[i].RunningVar.Data, srcBNs[i].RunningVar.Data)
	}
	return nil
}
