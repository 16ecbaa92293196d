// Package bench is sealbench: one benchmark for the encrypted-inference
// gateway and the timing simulator. It runs named workloads against the
// repository's public entry points — the serve gateway over HTTP/2, and
// exp.Grid — checks every output against a locally computed reference,
// and reports end-to-end metrics (untraced runs) or per-layer metrics
// (traced runs) as one JSON line. See README.md for the metric glossary
// and why each workload exists.
package bench

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// Metric is one named measurement as the benchmark prints it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and fixes its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"goodput_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

// vgg16Layers are the weight layers of VGG-16, the model the per-layer
// decrypt and plaintext probes run on.
var vgg16Layers = []string{
	"conv1_1", "conv1_2", "conv2_1", "conv2_2",
	"conv3_1", "conv3_2", "conv3_3", "conv4_1", "conv4_2", "conv4_3",
	"conv5_1", "conv5_2", "conv5_3", "fc1", "fc2", "fc3",
}

// schemes are the grid's three simulated encryption schemes.
var schemes = []string{"baseline", "direct", "seal"}

// servingLayerMetrics are the per-layer metrics only a serving workload
// can measure; sim-grid, which serves nothing, reports them as 0.
var servingLayerMetrics = []metricDef{
	{"gen.late_p99_ms", "ms"},
	{"gen.conns", "count"},
	{"gen.inflight_max", "count"},
	{"transport.healthz_p50_us", "us"},
	{"serve.avg_batch_low", "count"},
	{"serve.avg_batch_over", "count"},
	{"serve.busy_frac", "ratio"},
	{"serve.shed_frac", "ratio"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.roofline_frac", "ratio"},
	{"serve.swap_p50_ms", "ms"},
}

// perLayer lists the metrics a traced run reports, on every workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := append([]metricDef(nil), servingLayerMetrics...)
	defs = append(defs,
		metricDef{"secure.t1_ms", "ms"},
		metricDef{"secure.tmax_ms", "ms"},
		metricDef{"secure.batch_qps", "1/s"},
		metricDef{"secure.over_plain", "ratio"},
		metricDef{"secure.overlap_ms", "ms"},
		metricDef{"secure.panels_per_fwd", "count"},
		metricDef{"secure.mb_decrypted_per_fwd", "MB"},
		metricDef{"secure.mb_copied_per_fwd", "MB"},
		metricDef{"secure.allocs_per_fwd", "count"},
	)
	for _, l := range vgg16Layers {
		defs = append(defs, metricDef{"core.decrypt_ms." + l, "ms"})
	}
	for _, l := range vgg16Layers {
		defs = append(defs, metricDef{"nn.plain_ms." + l, "ms"})
	}
	defs = append(defs,
		metricDef{"aes.ctr_gbps", "GB/s"},
		metricDef{"models.build_ms", "ms"},
		metricDef{"core.plan_ms", "ms"},
		metricDef{"core.layout_ms", "ms"},
		metricDef{"core.seal_ms", "ms"},
		metricDef{"secure.new_engine_ms", "ms"},
		metricDef{"trace.build_ms", "ms"},
	)
	for _, s := range schemes {
		defs = append(defs, metricDef{"gpu.cycles." + s, "cycles"})
	}
	for _, s := range schemes {
		defs = append(defs, metricDef{"gpu.host_ns_per_memreq." + s, "ns"})
	}
	return append(defs, metricDef{"bench.trace_overhead_frac", "ratio"})
}

// catalog returns the metrics a run must report.
func catalog(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// emit turns measured values into the printed metric set, in catalog
// order. Every catalog metric must have been measured.
func emit(values map[string]float64, trace bool) (map[string]Metric, error) {
	out := make(map[string]Metric, len(values))
	for _, d := range catalog(trace) {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("bench: metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bench: metric %s is %v", d.name, v)
		}
		out[d.name] = Metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// reportQuantiles are the percentiles a timing may be reported at.
var reportQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// tailQuantile returns the highest reportable percentile of n samples
// that leaves at least ten samples beyond it under the nearest-rank
// rule, and false when not even the median does.
func tailQuantile(n int) (float64, bool) {
	for _, q := range reportQuantiles {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// quantile returns the nearest-rank q-quantile of xs, sorting xs in
// place; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Host stamps a result with the machine and build that produced it.
type Host struct {
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified bool   `json:"vcs_modified"`
	LoadAvg     string `json:"loadavg"`
}

// hostStamp reads the host block. NumCPU is the scheduler-affinity CPU
// count, the number nproc prints.
func hostStamp() Host {
	h := Host{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		VCSRevision: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.VCSRevision = s.Value
			case "vcs.modified":
				h.VCSModified = s.Value == "true"
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.TrimSpace(string(b))
	}
	return h
}

// rssPeakMB is the process's peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
