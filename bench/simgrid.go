package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"seal/internal/exp"
)

// gridGoldenJSON holds the three IPCs of every sim-grid cell as the
// simulator produced them when the benchmark was defined.
//
//go:embed testdata/grid_golden.json
var gridGoldenJSON []byte

// gridCell is one golden cell of the grid.
type gridCell struct {
	Arch        string  `json:"arch"`
	Ratio       float64 `json:"ratio"`
	Engines     int     `json:"engines"`
	L2KB        int     `json:"l2_kb"`
	BaselineIPC float64 `json:"baseline_ipc"`
	DirectIPC   float64 `json:"direct_ipc"`
	SealIPC     float64 `json:"seal_ipc"`
}

func (c gridCell) ipcs() [3]float64 { return [3]float64{c.BaselineIPC, c.DirectIPC, c.SealIPC} }

func (c gridCell) key() string {
	return fmt.Sprintf("%s/r%g/e%d/l2-%d", c.Arch, c.Ratio, c.Engines, c.L2KB)
}

func cellOf(c exp.GridCell) gridCell {
	return gridCell{Arch: c.Arch, Ratio: c.Ratio, Engines: c.Engines, L2KB: c.L2KB,
		BaselineIPC: c.BaselineIPC, DirectIPC: c.DirectIPC, SealIPC: c.SealIPC}
}

// gridWorkload is an exact-mode exp.Grid sweep checked cell by cell.
type gridWorkload struct {
	cfg    exp.TimingConfig
	spec   exp.GridSpec
	golden []gridCell
}

// defaultGrid is sim-grid: vgg16 and resnet18 × ratio 0.3, 0.7 ×
// engines 1, 4 × L2 256 KB, at quarter width so that several whole
// grids fit in one run.
func defaultGrid() gridWorkload {
	cfg := exp.DefaultTimingConfig()
	cfg.Scale = 0.25
	w := gridWorkload{cfg: cfg, spec: exp.GridSpec{
		Ratios: []float64{0.3, 0.7}, Archs: []string{"vgg16", "resnet18"},
		Engines: []int{1, 4}, L2KB: []int{256},
	}}
	if err := json.Unmarshal(gridGoldenJSON, &w.golden); err != nil {
		panic(fmt.Sprintf("bench: embedded grid golden: %v", err))
	}
	return w
}

// matches reports whether a simulated cell equals its golden.
func (w gridWorkload) matches(c exp.GridCell) bool {
	got := cellOf(c)
	for _, g := range w.golden {
		if g.key() == got.key() {
			return g == got
		}
	}
	return false
}

// gridPass is one timed stretch of whole-grid runs.
type gridPass struct {
	callMS  []float64 // nominal
	rawMS   []float64
	cells   int64
	bad     int64
	seconds float64
}

// cellsPerS is the median over grid calls of cells simulated per second.
func (p *gridPass) cellsPerS() float64 {
	rates := make([]float64, len(p.callMS))
	for i, d := range p.callMS {
		rates[i] = float64(p.cells) / float64(len(p.callMS)) / (d / 1e3)
	}
	return median(rates)
}

// run repeats exp.Grid until the next call would overrun the time
// budget (at least once).
func (w gridWorkload) run(budget time.Duration, m meter) (*gridPass, error) {
	p := &gridPass{}
	start := time.Now()
	var last time.Duration
	for len(p.callMS) == 0 || time.Since(start)+last <= budget {
		// Each call starts from a collected heap, so that the peak RSS
		// is the grid's own and not the collector's timing.
		runtime.GC()
		var res *exp.GridResult
		var err error
		t0 := time.Now()
		p.callMS = append(p.callMS, m.time(0, "exp.grid", func() { res, err = exp.Grid(w.cfg, w.spec, false) }))
		last = time.Since(t0)
		if err != nil {
			return nil, err
		}
		p.rawMS = append(p.rawMS, ms(last))
		p.seconds += last.Seconds()
		for _, c := range res.Cells {
			p.cells++
			if !w.matches(c) {
				p.bad++
			}
		}
	}
	return p, nil
}

// setup builds the grid's trace groups once, the work exp.Grid does
// before it simulates.
func (w gridWorkload) setup() error {
	for _, a := range w.spec.Archs {
		for _, r := range w.spec.Ratios {
			if _, _, err := buildTraces(w.cfg, a, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// runGrid runs sim-grid: set-up, the untraced pass, and for a traced run
// a traced pass and the layer probes.
func runGrid(w gridWorkload, cfg Config, out *Outcome) error {
	for i := 0; i < coldStarts; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return err
		}
		out.setup(t0, time.Now())
	}
	plain, err := w.run(seconds(cfg.Seconds), meter{speed: out.speed})
	if err != nil {
		return err
	}
	passes := []*gridPass{plain}
	v := out.values
	if !cfg.Trace {
		v["p50_ms"] = median(plain.callMS)
		v["goodput_per_s"] = plain.cellsPerS()
	} else {
		m := out.meter()
		traced, err := w.run(seconds(cfg.Seconds), m)
		if err != nil {
			return err
		}
		passes = append(passes, traced)
		arch, err := archFor(sweepSpec)
		if err != nil {
			return err
		}
		samples := makeSamples(cfg.Seed, arch.InC*arch.InH*arch.InW)
		if err := secureProbe(m, sweepSpec, samples, v); err != nil {
			return err
		}
		if err := layerSweep(m, v); err != nil {
			return err
		}
		for _, d := range servingLayerMetrics {
			v[d.name] = 0 // sim-grid serves nothing
		}
		v["bench.trace_overhead_frac"] = median(traced.callMS)/median(plain.callMS) - 1
	}
	for i, p := range passes {
		out.Result.Attempted += p.cells
		out.Result.Failed += p.bad
		if p.bad > 0 {
			out.Result.Correct = false
		}
		out.Report.Passes = append(out.Report.Passes, PassReport{
			Traced:  i == 1,
			Phases:  []PhaseReport{{Name: "grid", Seconds: p.seconds, Attempted: p.cells, OK: p.cells - p.bad, Failed: p.bad, Wrong: p.bad}},
			Latency: latencyReport(p.callMS, p.rawMS),
		})
	}
	return nil
}
