// Command sealsec runs the security experiments of the SEAL
// reproduction: the substitute-model study behind Figures 3 (IP
// stealing) and 4 (adversarial transferability).
//
// Usage:
//
//	sealsec                       # all three architectures, default scale
//	sealsec -quick                # one architecture, reduced settings
//	sealsec -arch vgg16,resnet18  # subset
//	sealsec -ratios 0.9,0.5,0.1
//	sealsec -premise              # then prune the suite's first victim
//	sealsec -int8                 # first architecture's victim, float vs int8
//
// The reduced Figure-3 cell (quick scale, resnet18, ratio 0.5) is
// pinned bit for bit by TestFig3CellGolden in internal/exp.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"seal/internal/exp"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "use the reduced smoke-scale configuration")
		arches  = flag.String("arch", "", "comma-separated subset of vgg16,resnet18,resnet34")
		ratios  = flag.String("ratios", "", "comma-separated encryption ratios (e.g. 0.9,0.5,0.1)")
		seed    = flag.Uint64("seed", 7, "experiment seed")
		premise = flag.Bool("premise", false, "also run the pruning-premise validation")
		int8F   = flag.Bool("int8", false, "run the quantized-security study (float vs int8 victim) instead of the full figure suite")
	)
	flag.Parse()

	cfg := exp.DefaultSecurityConfig()
	if *quick {
		cfg = exp.QuickSecurityConfig()
	}
	cfg.Seed = *seed
	cfg.Progress = os.Stderr
	if *arches != "" {
		cfg.Arches = strings.Split(*arches, ",")
	}
	if *ratios != "" {
		r, err := parseRatios(*ratios)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sealsec: %v\n", err)
			os.Exit(2)
		}
		cfg.Ratios = r
	}

	if *int8F {
		start := time.Now()
		v, err := exp.TrainVictim(cfg, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sealsec: int8: %v\n", err)
			os.Exit(1)
		}
		tab, err := exp.QuantizedSecurity(cfg, v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sealsec: int8: %v\n", err)
			os.Exit(1)
		}
		tab.Format(os.Stdout)
		fmt.Printf("  (quantized security study in %.0fs)\n", time.Since(start).Seconds())
		return
	}

	start := time.Now()
	res, err := exp.RunSecurity(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sealsec: %v\n", err)
		os.Exit(1)
	}
	res.Figure3().Format(os.Stdout)
	fmt.Println()
	res.Figure4().Format(os.Stdout)
	fmt.Printf("  (security suite in %.0fs)\n", time.Since(start).Seconds())

	if *premise {
		tab, err := exp.PruningPremise(cfg, res.Victims[0], []float64{0.1, 0.2, 0.3, 0.4, 0.5})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sealsec: premise: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		tab.Format(os.Stdout)
	}
}

// parseRatios parses the -ratios list, rejecting a ratio outside
// [0, 1], NaN included, before any model is trained.
func parseRatios(list string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil || !(v >= 0 && v <= 1) {
			return nil, fmt.Errorf("bad ratio %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}
