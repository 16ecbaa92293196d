// Package models provides the three CNN architectures evaluated in the
// paper — VGG-16, ResNet-18 and ResNet-34 (CIFAR-10 variants) — in two
// forms: pure geometry descriptors (LayerSpec/Arch) consumed by the
// timing simulator's trace generator, and trainable networks built on the
// nn substrate for the security experiments.
//
// The geometry descriptors always use the full published channel counts,
// so DRAM traffic volumes in the timing experiments are exact. Trainable
// networks accept a width multiplier so that pure-Go training stays
// tractable; the topology (layer count, kernel shapes, stride pattern)
// is unchanged.
package models

import "fmt"

// LayerKind discriminates the entries of an architecture description.
type LayerKind int

// Layer kinds appearing in Arch.Specs.
const (
	KindConv LayerKind = iota
	KindPool
	KindFC
	KindGlobalAvgPool
)

// String implements fmt.Stringer.
func (k LayerKind) String() string {
	switch k {
	case KindConv:
		return "CONV"
	case KindPool:
		return "POOL"
	case KindFC:
		return "FC"
	case KindGlobalAvgPool:
		return "GAP"
	default:
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
}

// LayerSpec is the geometry of one layer: enough to compute weight and
// feature-map footprints and the memory traffic of its computation.
type LayerSpec struct {
	Name   string
	Kind   LayerKind
	InC    int // input channels (or input features for FC)
	OutC   int // output channels (or output features for FC)
	InH    int // input spatial height (1 for FC)
	InW    int // input spatial width (1 for FC)
	K      int // kernel size (square; pool window for pools; 0 for FC)
	Stride int
	Pad    int

	// Residual marks conv layers that belong to a residual block, and
	// ShortcutOf names the block for 1×1 projection shortcuts. Purely
	// informational; the trace generator treats them as ordinary convs.
	Residual   bool
	ShortcutOf string
}

// OutH returns the layer's output height.
func (s LayerSpec) OutH() int {
	switch s.Kind {
	case KindFC:
		return 1
	case KindGlobalAvgPool:
		return 1
	default:
		return (s.InH+2*s.Pad-s.K)/s.Stride + 1
	}
}

// OutW returns the layer's output width.
func (s LayerSpec) OutW() int {
	switch s.Kind {
	case KindFC:
		return 1
	case KindGlobalAvgPool:
		return 1
	default:
		return (s.InW+2*s.Pad-s.K)/s.Stride + 1
	}
}

// WeightCount returns the number of weight parameters (0 for pools).
func (s LayerSpec) WeightCount() int {
	switch s.Kind {
	case KindConv:
		return s.OutC * s.InC * s.K * s.K
	case KindFC:
		return s.OutC * s.InC
	default:
		return 0
	}
}

// Arch is an ordered architecture description.
type Arch struct {
	Name    string
	InC     int // network input channels
	InH     int
	InW     int
	Classes int
	Specs   []LayerSpec
}

// ConvSpecs returns the CONV layers in order.
func (a *Arch) ConvSpecs() []LayerSpec {
	var out []LayerSpec
	for _, s := range a.Specs {
		if s.Kind == KindConv {
			out = append(out, s)
		}
	}
	return out
}

// FCSpecs returns the FC layers in order.
func (a *Arch) FCSpecs() []LayerSpec {
	var out []LayerSpec
	for _, s := range a.Specs {
		if s.Kind == KindFC {
			out = append(out, s)
		}
	}
	return out
}

// WeightLayerCount returns the number of CONV plus FC layers.
func (a *Arch) WeightLayerCount() int {
	n := 0
	for _, s := range a.Specs {
		if s.Kind == KindConv || s.Kind == KindFC {
			n++
		}
	}
	return n
}

// TotalWeights returns the total parameter count of all weight layers.
func (a *Arch) TotalWeights() int64 {
	var n int64
	for _, s := range a.Specs {
		n += int64(s.WeightCount())
	}
	return n
}

// Validate checks internal consistency: each layer's input must match
// the previous layer's output.
func (a *Arch) Validate() error {
	c, h, w := a.InC, a.InH, a.InW
	branch := map[string][3]int{} // block name -> input dims for shortcut convs
	for i, s := range a.Specs {
		if s.Kind == KindFC {
			if s.InC != c*h*w && s.InC != c {
				return fmt.Errorf("models: %s layer %d (%s) input %d, want %d (flattened) or %d", a.Name, i, s.Name, s.InC, c*h*w, c)
			}
			c, h, w = s.OutC, 1, 1
			continue
		}
		if s.ShortcutOf != "" {
			in, ok := branch[s.ShortcutOf]
			if !ok {
				return fmt.Errorf("models: %s layer %d (%s) shortcut of unknown block %q", a.Name, i, s.Name, s.ShortcutOf)
			}
			if s.InC != in[0] || s.InH != in[1] || s.InW != in[2] {
				return fmt.Errorf("models: %s shortcut %s input %dx%dx%d, want %dx%dx%d",
					a.Name, s.Name, s.InC, s.InH, s.InW, in[0], in[1], in[2])
			}
			// shortcut output merges with the main path; do not advance
			continue
		}
		if s.Residual && s.Name != "" {
			// remember block entry dims for a possible projection shortcut
			if _, seen := branch[blockOf(s.Name)]; !seen {
				branch[blockOf(s.Name)] = [3]int{c, h, w}
			}
		}
		if s.InC != c || s.InH != h || s.InW != w {
			return fmt.Errorf("models: %s layer %d (%s) input %dx%dx%d, want %dx%dx%d",
				a.Name, i, s.Name, s.InC, s.InH, s.InW, c, h, w)
		}
		if (s.Kind == KindPool || s.Kind == KindGlobalAvgPool) && s.OutC != s.InC {
			return fmt.Errorf("models: %s pool %s must have OutC == InC", a.Name, s.Name)
		}
		if s.OutH() < 1 || s.OutW() < 1 {
			return fmt.Errorf("models: %s layer %s collapses to %dx%d output (input too small)", a.Name, s.Name, s.OutH(), s.OutW())
		}
		c, h, w = s.OutC, s.OutH(), s.OutW()
	}
	return nil
}

// blockOf extracts "layerX.blockY" from a conv name like
// "layerX.blockY.conv1".
func blockOf(name string) string {
	// names are structured; trim the final ".convN" suffix
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}
