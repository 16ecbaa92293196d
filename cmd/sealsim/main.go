// Command sealsim runs the simulator-based experiments of the SEAL
// reproduction: Table I and Figures 1, 5, 6, 7 and 8, plus the ratio and
// engine-count ablations and the paper-scale configuration grid.
//
// Usage:
//
//	sealsim -exp table1
//	sealsim -exp fig1
//	sealsim -exp fig5 | fig6          # per-layer microbenchmarks
//	sealsim -exp nets                 # Figures 7 and 8 in one pass
//	sealsim -exp ratios               # normalized IPC vs encryption ratio
//	sealsim -exp engines              # engines-per-controller ablation
//	sealsim -exp grid                 # ratio × arch × engines × L2 sweep
//	sealsim -exp all
//	sealsim -exp fig1 -quick          # smoke-scale run
//
// -exp takes a comma-separated list; an unknown name exits 2. Every
// experiment runs the exact cycle simulator, with independent
// configurations spread over SEAL_WORKERS workers (default GOMAXPROCS);
// the output is the same at any worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"seal/internal/exp"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		which   = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experiments, ", ")+", all (all omits grid; fig7 and fig8 mean nets)")
		quick   = flag.Bool("quick", false, "use the reduced smoke-scale configuration")
		ratio   = flag.Float64("ratio", 0.5, "SEAL encryption ratio for figures 5-8")
		batch   = flag.Int("batch", 1, "inference batch size for figures 5-8")
		counter = flag.Int("counterkb", 96, "counter cache size (total KB) for Counter/SEAL-C")
		csv     = flag.Bool("csv", false, "emit comma-separated values instead of aligned text")
		bars    = flag.Bool("bars", false, "render ASCII bar charts instead of aligned text")

		gridArchs   = flag.String("grid-archs", "vgg16,resnet18", "grid: comma-separated architectures")
		gridRatios  = flag.String("grid-ratios", "0.3,0.5,0.7", "grid: comma-separated encryption ratios")
		gridEngines = flag.String("grid-engines", "1,2,4", "grid: comma-separated engines per memory controller")
		gridL2      = flag.String("grid-l2", "128,256,512", "grid: comma-separated per-slice L2 KB")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	sel, err := parseExps(*which)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sealsim: %v\n", err)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sealsim: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sealsim: cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sealsim: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sealsim: memprofile: %v\n", err)
			}
		}()
	}

	cfg := exp.DefaultTimingConfig()
	if *quick {
		cfg = exp.QuickTimingConfig()
	}
	cfg.Ratio = *ratio
	cfg.Batch = *batch
	cfg.CounterKB = *counter

	emit := func(t *exp.Table) bool {
		switch {
		case *csv:
			if err := t.CSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "sealsim: %v\n", err)
				return false
			}
		case *bars:
			t.Bars(os.Stdout)
		default:
			t.Format(os.Stdout)
		}
		return true
	}
	code := 0
	run := func(name string, f func() (*exp.Table, error)) {
		if code != 0 {
			return
		}
		start := time.Now()
		t, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sealsim: %s: %v\n", name, err)
			code = 1
			return
		}
		if !emit(t) {
			code = 1
			return
		}
		if !*csv {
			fmt.Printf("  (%s in %.1fs)\n\n", name, time.Since(start).Seconds())
		}
	}

	if sel["table1"] {
		run("table1", func() (*exp.Table, error) { return exp.TableI(), nil })
	}
	if sel["fig1"] {
		run("fig1", func() (*exp.Table, error) { return exp.Figure1(cfg) })
	}
	if sel["fig5"] {
		run("fig5", func() (*exp.Table, error) { return exp.Figure5(cfg) })
	}
	if sel["fig6"] {
		run("fig6", func() (*exp.Table, error) { return exp.Figure6(cfg) })
	}
	if code == 0 && sel["nets"] {
		start := time.Now()
		nr, err := exp.RunNetworks(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sealsim: nets: %v\n", err)
			return 1
		}
		if !emit(nr.Figure7()) {
			return 1
		}
		fmt.Println()
		if !emit(nr.Figure8()) {
			return 1
		}
		if !*csv {
			fmt.Printf("  (nets in %.1fs)\n\n", time.Since(start).Seconds())
		}
	}
	if sel["ratios"] {
		run("ratios", func() (*exp.Table, error) {
			return exp.RatioSweep(cfg, []float64{0.1, 0.3, 0.5, 0.7, 0.9})
		})
	}
	if sel["engines"] {
		run("engines", func() (*exp.Table, error) {
			return exp.EngineCountAblation(cfg, []int{1, 2, 4, 8})
		})
	}
	if sel["integrity"] {
		run("integrity", func() (*exp.Table, error) { return exp.Integrity(cfg) })
	}
	if sel["l2sweep"] {
		run("l2sweep", func() (*exp.Table, error) {
			return exp.L2Sweep(cfg, []int{64, 128, 256, 512})
		})
	}
	if code == 0 && sel["grid"] {
		var spec exp.GridSpec
		if spec.Archs, err = splitList(*gridArchs); err == nil {
			spec.Ratios, err = splitFloats(*gridRatios)
		}
		if err == nil {
			spec.Engines, err = splitInts(*gridEngines)
		}
		if err == nil {
			spec.L2KB, err = splitInts(*gridL2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sealsim: grid: %v\n", err)
			return 1
		}
		run("grid", func() (*exp.Table, error) {
			res, err := exp.Grid(cfg, spec, false)
			if err != nil {
				return nil, err
			}
			return res.Table(), nil
		})
	}
	if sel["counters"] {
		run("counters", func() (*exp.Table, error) {
			return exp.CounterGranularity(cfg, []int{16, 8, 4, 1})
		})
	}
	return code
}

// experiments lists the -exp names in run order.
var experiments = []string{"table1", "fig1", "fig5", "fig6", "nets", "ratios", "engines", "integrity", "l2sweep", "grid", "counters"}

// parseExps turns the -exp value into the set of experiments to run.
// "all" selects every experiment but grid, a 54-cell sweep beyond the
// paper's figures that runs 162 whole-network simulations at paper
// scale; fig7 and fig8 are aliases of nets, which produces both
// figures in one pass.
func parseExps(s string) (map[string]bool, error) {
	sel := map[string]bool{}
	for _, tok := range strings.Split(s, ",") {
		switch tok = strings.TrimSpace(tok); tok {
		case "all":
			for _, e := range experiments {
				if e != "grid" {
					sel[e] = true
				}
			}
		case "fig7", "fig8":
			sel["nets"] = true
		default:
			if !slices.Contains(experiments, tok) {
				return nil, fmt.Errorf("unknown experiment %q (valid: %s, fig7, fig8, all)", tok, strings.Join(experiments, ", "))
			}
			sel[tok] = true
		}
	}
	return sel, nil
}

func splitList(s string) ([]string, error) {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", s)
	}
	return out, nil
}

func splitFloats(s string) ([]float64, error) {
	parts, err := splitList(s)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(parts))
	for i, p := range parts {
		if out[i], err = strconv.ParseFloat(p, 64); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func splitInts(s string) ([]int, error) {
	parts, err := splitList(s)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		if out[i], err = strconv.Atoi(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}
