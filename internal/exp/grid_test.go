package exp

import (
	"math"
	"reflect"
	"testing"

	"seal/internal/parallel"
)

// TestGridDeterministic runs a quick-scale grid of two trace groups,
// vgg16 × ratios {0.3, 0.7} × engines {1, 2} × L2 256 KB, once serially
// and once on a wide pool. The cell fan-out writes index-addressed
// slots, so both runs must agree bit for bit and list the cells in
// enumeration order.
func TestGridDeterministic(t *testing.T) {
	cfg := QuickTimingConfig()
	spec := GridSpec{
		Ratios:  []float64{0.3, 0.7},
		Archs:   []string{"vgg16"},
		Engines: []int{1, 2},
		L2KB:    []int{256},
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	serial, err := Grid(cfg, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetWorkers(8)
	par, err := Grid(cfg, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Cells, par.Cells) {
		t.Fatalf("parallel grid differs from the serial one:\n%+v\nvs\n%+v", serial.Cells, par.Cells)
	}
	if len(par.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(par.Cells))
	}
	i := 0
	for _, ratio := range spec.Ratios {
		for _, engines := range spec.Engines {
			c := par.Cells[i]
			if c.Arch != "vgg16" || c.Ratio != ratio || c.Engines != engines || c.L2KB != 256 {
				t.Fatalf("cell %d is %s r=%v e=%d L2=%d, want vgg16 r=%v e=%d L2=256",
					i, c.Arch, c.Ratio, c.Engines, c.L2KB, ratio, engines)
			}
			if c.BaselineIPC <= 0 || c.DirectIPC <= 0 || c.SealIPC <= 0 {
				t.Fatalf("cell %d: non-positive IPC %+v", i, c)
			}
			if c.NormDirectIPC != c.DirectIPC/c.BaselineIPC || c.SealOverDirect != c.SealIPC/c.DirectIPC {
				t.Fatalf("cell %d: headline metrics are not the IPC ratios: %+v", i, c)
			}
			if c.NormDirectIPC > 1 || c.SealOverDirect < 1 {
				t.Fatalf("cell %d: full encryption faster than baseline or SEAL slower than it: %+v", i, c)
			}
			i++
		}
	}
	if _, err := Grid(cfg, spec, true); err == nil {
		t.Fatal("Grid(..., true) returned no error")
	}
}

func TestGridSpecValidate(t *testing.T) {
	good := DefaultGridSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*GridSpec){
		"empty archs":   func(s *GridSpec) { s.Archs = nil },
		"zero ratio":    func(s *GridSpec) { s.Ratios = []float64{0} },
		"ratio above 1": func(s *GridSpec) { s.Ratios = []float64{1.5} },
		"NaN ratio":     func(s *GridSpec) { s.Ratios = []float64{math.NaN()} },
		"zero engines":  func(s *GridSpec) { s.Engines = []int{0} },
		"zero l2":       func(s *GridSpec) { s.L2KB = []int{0} },
	} {
		s := DefaultGridSpec()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
}
