package exp

import (
	"errors"
	"fmt"

	"seal/internal/gpu"
	"seal/internal/models"
	"seal/internal/parallel"
	"seal/internal/trace"
)

// GridSpec describes the paper-scale configuration grid of `sealsim
// -exp grid`: encryption ratio × architecture × engines-per-controller ×
// L2 slice size. Each cell simulates Baseline, full Direct and SEAL-D
// whole-network inference and reports the headline metrics (IPC,
// seal-over-direct slowdown). Traces are built once per (arch, ratio)
// and shared read-only across the (engines, L2) sub-grid.
type GridSpec struct {
	Ratios  []float64
	Archs   []string // models.ArchByName tokens
	Engines []int    // AES engines per memory controller
	L2KB    []int    // per-slice L2 KB
}

// DefaultGridSpec is the shipped sweep: 54 cells.
func DefaultGridSpec() GridSpec {
	return GridSpec{
		Ratios:  []float64{0.3, 0.5, 0.7},
		Archs:   []string{"vgg16", "resnet18"},
		Engines: []int{1, 2, 4},
		L2KB:    []int{128, 256, 512},
	}
}

// Validate checks the sweep axes.
func (s GridSpec) Validate() error {
	if len(s.Ratios) == 0 || len(s.Archs) == 0 || len(s.Engines) == 0 || len(s.L2KB) == 0 {
		return fmt.Errorf("exp: empty grid axis %+v", s)
	}
	for _, r := range s.Ratios {
		if !(r > 0 && r <= 1) { // also rejects NaN
			return fmt.Errorf("exp: grid ratio %v outside (0,1]", r)
		}
	}
	for _, n := range s.Engines {
		if n <= 0 {
			return fmt.Errorf("exp: non-positive engine count %d", n)
		}
	}
	for _, kb := range s.L2KB {
		if kb <= 0 {
			return fmt.Errorf("exp: non-positive L2 size %d", kb)
		}
	}
	return nil
}

// GridCell is one simulated configuration point.
type GridCell struct {
	Arch    string
	Ratio   float64
	Engines int
	L2KB    int

	BaselineIPC float64
	DirectIPC   float64
	SealIPC     float64 // SEAL-D at the cell's ratio
	// Headline metrics: encryption cost relative to the insecure
	// baseline, and SEAL's recovery relative to full encryption.
	NormDirectIPC  float64 // DirectIPC / BaselineIPC
	SealOverDirect float64 // SealIPC / DirectIPC
}

// GridResult is the full sweep, cells in enumeration order.
type GridResult struct {
	Spec  GridSpec
	Cells []GridCell
}

// gridCellRun simulates the cell's three schemes, each on its own
// simulator over the group's shared read-only traces, and fills in the
// cell's metrics.
func gridCellRun(cfg TimingConfig, protected gpu.EncFn, traces []trace.LayerTrace, cell *GridCell) error {
	ipc := func(mode gpu.EncMode, fn gpu.EncFn) (float64, error) {
		g := gtx480(mode, fn, cfg.CounterKB)
		g.EngineSpec.ThroughputGBs *= float64(cell.Engines)
		g.L2Slice.SizeBytes = cell.L2KB * 1024
		sim, err := gpu.New(g)
		if err != nil {
			return 0, err
		}
		_, total, err := trace.RunNetwork(sim, traces)
		return total.IPC, err
	}
	var err error
	if cell.BaselineIPC, err = ipc(gpu.ModeNone, nil); err != nil {
		return err
	}
	if cell.DirectIPC, err = ipc(gpu.ModeDirect, nil); err != nil {
		return err
	}
	if cell.SealIPC, err = ipc(gpu.ModeDirect, protected); err != nil {
		return err
	}
	if cell.BaselineIPC > 0 {
		cell.NormDirectIPC = cell.DirectIPC / cell.BaselineIPC
	}
	if cell.DirectIPC > 0 {
		cell.SealOverDirect = cell.SealIPC / cell.DirectIPC
	}
	return nil
}

// Grid runs the sweep on the exact simulator. Cells enumerate arch,
// ratio, engines, then L2 size. Each (arch, ratio) trace group is built
// once, and its cells fan out over the worker pool into index-addressed
// slots, so only one group's traces are live at a time and the result
// is bit-identical at any pool width. The simulator has no statistical
// mode, so stat must be false; true returns an error.
func Grid(cfg TimingConfig, spec GridSpec, stat bool) (*GridResult, error) {
	if stat {
		return nil, errors.New("exp: Grid has no statistical mode; pass stat=false")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	res := &GridResult{Spec: spec}
	for _, archName := range spec.Archs {
		arch, err := models.ArchByName(archName)
		if err != nil {
			return nil, err
		}
		for _, ratio := range spec.Ratios {
			c := cfg
			c.Ratio = ratio
			_, layout, traces, err := buildNetwork(c, arch)
			if err != nil {
				return nil, fmt.Errorf("exp: grid %s ratio %v: %w", archName, ratio, err)
			}
			var cells []GridCell
			for _, engines := range spec.Engines {
				for _, l2kb := range spec.L2KB {
					cells = append(cells, GridCell{Arch: archName, Ratio: ratio, Engines: engines, L2KB: l2kb})
				}
			}
			tasks := make([]func() error, len(cells))
			for i := range cells {
				cell := &cells[i]
				tasks[i] = func() error { return gridCellRun(c, layout.Protected, traces, cell) }
			}
			if err := parallel.DoErr(tasks...); err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, cells...)
		}
	}
	return res, nil
}

// Table formats the sweep for terminal output.
func (r *GridResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Grid: ratio × arch × engines × L2 (%d cells)", len(r.Cells)),
		Columns: []string{"NormDirIPC", "SealOverDir"},
	}
	for _, c := range r.Cells {
		t.AddRow(fmt.Sprintf("%s r=%.0f%% e=%d L2=%dKB", c.Arch, c.Ratio*100, c.Engines, c.L2KB),
			c.NormDirectIPC, c.SealOverDirect)
	}
	return t
}
