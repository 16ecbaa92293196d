package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// Workloads names every workload, in the order a full run takes them.
var Workloads = []string{"serve-engine", "serve-gateway", "serve-swap", "sim-grid"}

// Config selects one run of one workload.
type Config struct {
	Workload string
	Seed     uint64
	Seconds  float64 // measured time per pass
	Trace    bool    // per-layer metrics instead of end-to-end ones
	SpanFile string  // where a traced run writes its spans; "" writes none
}

// Result is the line the benchmark ends with.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report is everything else a run knows: the host stamp, per-phase
// counts, tail latencies with their sample counts, and validity.
type Report struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Trace    bool      `json:"trace"`
	Host     Host      `json:"host"`
	Valid    bool      `json:"valid"`
	Invalid  []string  `json:"invalid_reasons,omitempty"`
	SetupS   []float64 `json:"raw_setup_s"` // each set-up, as measured
	// RefKernelMS is the median time of the host-speed reference kernel
	// over the run; reported times are scaled by refNominalMS over the
	// reference times around them.
	RefKernelMS float64            `json:"ref_kernel_ms"`
	Passes      []PassReport       `json:"passes"`
	SpanFile    string             `json:"span_file,omitempty"`
	SpanSelfMS  map[string]float64 `json:"span_self_ms,omitempty"`
}

func (r *Report) invalid(reason string) {
	r.Valid = false
	r.Invalid = append(r.Invalid, reason)
}

// PassReport describes one pass over the workload's phases.
type PassReport struct {
	Traced      bool          `json:"traced"`
	Phases      []PhaseReport `json:"phases"`
	Latency     LatencyReport `json:"latency"` // serving: phase low; sim-grid: whole grids
	SwapMS      LatencyReport `json:"swap_ms"`
	AvgBatch    []float64     `json:"avg_batch,omitempty"`
	CapHolds    int64         `json:"cap_holds"`
	InflightMax int64         `json:"inflight_max"`
	Conns       int64         `json:"conns"`
}

// PhaseReport counts one phase's operations.
type PhaseReport struct {
	Name       string  `json:"name"`
	OfferedQPS float64 `json:"offered_qps,omitempty"`
	Seconds    float64 `json:"seconds"`
	Attempted  int64   `json:"attempted"`
	OK         int64   `json:"ok"`
	Failed     int64   `json:"failed"`
	Shed       int64   `json:"shed"`    // answered 429
	Dropped    int64   `json:"dropped"` // held by the in-flight cap past the phase's end
	Wrong      int64   `json:"wrong"`
	LateP99MS  float64 `json:"late_p99_ms,omitempty"` // generator lateness
	Delivered  int64   `json:"delivered"`             // OK and completed before the phase ended
}

// LatencyReport is a median and the highest percentile the sample
// supports, at nominal host speed, and the median as measured.
type LatencyReport struct {
	Samples  int     `json:"samples"`
	P50MS    float64 `json:"p50_ms"`
	TailQ    float64 `json:"tail_q,omitempty"`
	TailMS   float64 `json:"tail_ms,omitempty"`
	RawP50MS float64 `json:"raw_p50_ms,omitempty"`
}

func latencyReport(nominal, raw []float64) LatencyReport {
	xs := append([]float64(nil), nominal...)
	r := LatencyReport{Samples: len(xs), P50MS: median(xs), RawP50MS: median(append([]float64(nil), raw...))}
	if q, ok := tailQuantile(len(xs)); ok && q > 0.5 {
		r.TailQ, r.TailMS = q, quantile(xs, q)
	}
	return r
}

// Outcome is a finished run.
type Outcome struct {
	Result Result
	Report Report

	values map[string]float64
	rec    *recorder
	speed  *speedometer
	setups []float64 // nominal seconds of each set-up
}

func (o *Outcome) meter() meter { return meter{rec: o.rec, speed: o.speed} }

// setup records one set-up that ran from t0 to t1.
func (o *Outcome) setup(t0, t1 time.Time) {
	o.setups = append(o.setups, o.speed.norm(t0, t1)/1e3)
	o.Report.SetupS = append(o.Report.SetupS, t1.Sub(t0).Seconds())
}

// Run runs one workload and checks every output it produced.
func Run(cfg Config) (*Outcome, error) {
	return run(cfg, servingWorkloads(), defaultGrid())
}

// run is Run over the given workload definitions.
func run(cfg Config, serving map[string]servingWorkload, grid gridWorkload) (*Outcome, error) {
	if n, c := runtime.GOMAXPROCS(0), runtime.NumCPU(); n > c {
		return nil, fmt.Errorf("bench: load guard: GOMAXPROCS %d exceeds nproc %d", n, c)
	}
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("bench: seconds %v, want > 0", cfg.Seconds)
	}
	out := &Outcome{
		Result: Result{Correct: true},
		Report: Report{Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace, Host: hostStamp(), Valid: true},
		values: make(map[string]float64),
	}
	if cfg.Trace {
		out.rec = newRecorder()
	}
	out.speed = startSpeedometer()
	var err error
	if cfg.Workload == "sim-grid" {
		err = runGrid(grid, cfg, out)
	} else if w, ok := serving[cfg.Workload]; ok {
		err = runServing(w, cfg, out)
	} else {
		err = fmt.Errorf("bench: unknown workload %q (want one of %v)", cfg.Workload, Workloads)
	}
	out.speed.Stop()
	if err != nil {
		return nil, err
	}
	out.Report.RefKernelMS = out.speed.medianMS()
	if !cfg.Trace {
		out.values["setup_s"] = median(out.setups)
		out.values["rss_peak_mb"] = rssPeakMB()
	}
	if out.Result.Metrics, err = emit(out.values, cfg.Trace); err != nil {
		return nil, err
	}
	if cfg.Trace {
		out.Report.SpanSelfMS = make(map[string]float64)
		for name, d := range selfTimes(out.rec.Spans()) {
			out.Report.SpanSelfMS[name] = ms(d)
		}
		if cfg.SpanFile != "" {
			if err := out.rec.WriteFile(cfg.SpanFile); err != nil {
				return nil, fmt.Errorf("bench: writing spans: %w", err)
			}
			out.Report.SpanFile = cfg.SpanFile
		}
	}
	return out, nil
}

// MetricNames returns the names a run reports, sorted.
func MetricNames(trace bool) []string {
	var names []string
	for _, d := range catalog(trace) {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}
