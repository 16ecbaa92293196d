// Package engine models the hardware AES encryption engines that sit in
// each memory controller of the secure GPU. The timing model captures
// the paper's central observation: a pipelined AES engine sustains only
// ~8 GB/s while the GDDR5 channel behind it delivers ~30 GB/s, so the
// engine — not DRAM — becomes the bandwidth bottleneck once all traffic
// is encrypted (paper §II-B).
//
// The package also carries the five published engine design points of
// Table I as presets, and the counter-cache bookkeeping of counter-mode
// encryption.
package engine

import "fmt"

// Spec is one hardware AES engine design point (Table I columns).
type Spec struct {
	Name          string
	AreaMM2       float64 // die area; 0 when the paper reports N/A
	PowerMW       float64 // power; 0 when the paper reports N/A
	LatencyCycles float64 // per-line pipeline latency in core cycles
	ThroughputGBs float64 // sustained throughput in GB/s
}

// Table I of the paper: performance comparison of AES engine
// implementations (counter mode).
var (
	SpecMorioka  = Spec{Name: "Morioka et al. [16]", PowerMW: 1920, LatencyCycles: 10, ThroughputGBs: 1.5}
	SpecMathew   = Spec{Name: "Mathew et al. [15]", AreaMM2: 1.1, PowerMW: 125, LatencyCycles: 20, ThroughputGBs: 6.6}
	SpecEnsilica = Spec{Name: "Ensilica [3]", AreaMM2: 1.4, LatencyCycles: 11, ThroughputGBs: 8}
	SpecSayilar  = Spec{Name: "Sayilar et al. [21]", AreaMM2: 6.3, PowerMW: 6207, LatencyCycles: 20, ThroughputGBs: 16}
	SpecLiu      = Spec{Name: "Liu et al. [14]", AreaMM2: 6.6, PowerMW: 1580, LatencyCycles: 152, ThroughputGBs: 19}
	// SpecModeled is the engine the paper instantiates in GPGPU-Sim: a
	// pipelined 128-bit AES engine with 20-cycle line latency and 8 GB/s
	// bandwidth (§IV-A).
	SpecModeled = Spec{Name: "Modeled (paper §IV-A)", AreaMM2: 1.2, PowerMW: 125, LatencyCycles: 20, ThroughputGBs: 8}
)

// TableI returns the five published design points in the paper's row
// order.
func TableI() []Spec {
	return []Spec{SpecMorioka, SpecMathew, SpecEnsilica, SpecSayilar, SpecLiu}
}

// Validate checks that the spec is usable as a timing model.
func (s Spec) Validate() error {
	if s.LatencyCycles < 0 || s.ThroughputGBs <= 0 {
		return fmt.Errorf("engine: invalid spec %+v", s)
	}
	return nil
}

// Stats counts engine activity.
type Stats struct {
	Lines     uint64
	Bytes     uint64
	BusyCycle float64 // total cycles the pipeline input was occupied
}

// Engine is the timing model of one pipelined AES engine clocked against
// the GPU core clock.
type Engine struct {
	spec          Spec
	bytesPerCycle float64
	freeAt        float64
	stats         Stats
}

// New constructs an engine model for a core clock in Hz.
func New(spec Spec, coreClockHz float64) *Engine {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if coreClockHz <= 0 {
		panic("engine: non-positive core clock")
	}
	return &Engine{spec: spec, bytesPerCycle: spec.ThroughputGBs * 1e9 / coreClockHz}
}

// BytesPerCycle returns the derived throughput in bytes per core cycle.
func (e *Engine) BytesPerCycle() float64 { return e.bytesPerCycle }

// Process reserves pipeline capacity for one n-byte line whose input is
// available at time ready. It returns when the transformed line emerges.
// The pipeline accepts a new line only after the previous line's input
// slot (n/bytesPerCycle cycles) has drained; output appears LatencyCycles
// after the last input byte.
func (e *Engine) Process(ready float64, n int) (done float64) {
	start := ready
	if e.freeAt > start {
		start = e.freeAt
	}
	slot := float64(n) / e.bytesPerCycle
	e.freeAt = start + slot
	e.stats.Lines++
	e.stats.Bytes += uint64(n)
	e.stats.BusyCycle += slot
	return start + slot + e.spec.LatencyCycles
}

// Stats returns accumulated counters.
func (e *Engine) Stats() Stats { return e.stats }
