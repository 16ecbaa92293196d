package bench

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"seal/internal/exp"
)

var update = flag.Bool("update", false, "rewrite testdata/grid_golden.json from the simulator")

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{5, 0, false},
		{19, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{199, 0.9, true},
		{200, 0.95, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	} {
		q, ok := tailQuantile(tc.n)
		if q != tc.q || ok != tc.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", tc.n, q, ok, tc.q, tc.ok)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	phases := []phase{{name: "low", qps: 200, seconds: 5}, {name: "over", qps: 1000, seconds: 2, shed: true}}
	a := schedule(7, phases, 2, 0.25)
	b := schedule(7, phases, 2, 0.25)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, phases, 2, 0.25)) {
		t.Fatal("different seeds gave the same schedule")
	}
	count := make([]int, len(phases))
	var jsonN int
	for i, x := range a {
		if i > 0 && x.at < a[i-1].at {
			t.Fatalf("arrival %d at %v before its predecessor", i, x.at)
		}
		count[x.phase]++
		if x.json {
			jsonN++
		}
	}
	for i, ph := range phases {
		want := ph.qps * ph.seconds
		if got := float64(count[i]); got < 0.9*want || got > 1.1*want {
			t.Errorf("phase %s: %v arrivals, want about %v", ph.name, got, want)
		}
	}
	if f := float64(jsonN) / float64(len(a)); f < 0.2 || f > 0.3 {
		t.Errorf("JSON share %.3f, want about 0.25", f)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "child", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "child", Start: 2, End: 5},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "child", Start: 8, End: 12}, // runs past the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 1, End: 2},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"parent":     10 - (4 + 2), // children cover [1,5) and [8,10)
		"child":      (2 - 1) + 3 + 4,
		"grandchild": 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestBenchmarkJSONNames pins the metric names and units in the
// repository's BENCHMARK.json to the ones the command emits.
func TestBenchmarkJSONNames(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !reflect.DeepEqual(workloads, Workloads) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", workloads, Workloads)
	}
	for _, tc := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var got, want []string
		for _, m := range tc.listed {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, d := range tc.defs {
			want = append(want, d.name+" "+d.unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json lists %v, command emits %v", got, want)
		}
	}
}

// TestGridGolden checks the embedded golden against the simulator; with
// -update it rewrites the golden instead.
func TestGridGolden(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("runs the whole grid")
	}
	w := defaultGrid()
	res, err := exp.Grid(w.cfg, w.spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		cells := make([]gridCell, len(res.Cells))
		for i, c := range res.Cells {
			cells[i] = cellOf(c)
		}
		b, err := json.MarshalIndent(cells, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "grid_golden.json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(res.Cells) != len(w.golden) {
		t.Fatalf("grid has %d cells, golden %d", len(res.Cells), len(w.golden))
	}
	for _, c := range res.Cells {
		if !w.matches(c) {
			t.Errorf("cell %s differs from its golden", cellOf(c).key())
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that it serves only correct outputs and reports exactly the catalog.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	serving := servingWorkloads()
	swap := serving["serve-swap"]
	swap.swapEvery = 500 * time.Millisecond
	serving["serve-swap"] = swap
	grid := defaultGrid()
	grid.spec = exp.GridSpec{Ratios: grid.spec.Ratios[:1], Archs: grid.spec.Archs[:1], Engines: grid.spec.Engines[:1], L2KB: grid.spec.L2KB}
	for _, name := range Workloads {
		for _, traced := range []bool{false, true} {
			cfg := Config{Workload: name, Seed: 3, Seconds: 2, Trace: traced}
			if traced {
				cfg.SpanFile = filepath.Join(t.TempDir(), "spans.jsonl")
			}
			out, err := run(cfg, serving, grid)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			r := out.Result
			// The race detector slows the engines enough that overloaded
			// requests miss their answer deadline; outputs must still be right.
			if !r.Correct || (r.Failed != 0 && !raceDetector) || r.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, traced, r.Correct, r.Failed, r.Attempted)
			}
			var got []string
			for k := range r.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, MetricNames(traced)) {
				t.Errorf("%s trace=%v: metrics %v, want %v", name, traced, got, MetricNames(traced))
			}
			if traced {
				if _, err := os.Stat(cfg.SpanFile); err != nil {
					t.Errorf("%s: span file: %v", name, err)
				}
				if name == "serve-swap" && r.Metrics["serve.swap_p50_ms"].Value == 0 {
					t.Errorf("serve-swap: no hot swap completed")
				}
			}
		}
	}
}
