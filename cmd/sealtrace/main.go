// Command sealtrace inspects a network's smart-encryption plan, memory
// layout and generated traffic: per-layer encrypted rows, region map,
// and the plaintext/ciphertext traffic split the simulator will see.
//
// Usage:
//
//	sealtrace -arch vgg16 -ratio 0.5
//	sealtrace -arch resnet18 -scale 0.25 -regions
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"seal/internal/core"
	"seal/internal/models"
	"seal/internal/prng"
	"seal/internal/trace"
)

func main() {
	var (
		archName = flag.String("arch", "vgg16", "architecture: vgg16, resnet18, resnet34")
		ratio    = flag.Float64("ratio", 0.5, "encryption ratio")
		scale    = flag.Float64("scale", 1.0, "width multiplier")
		batch    = flag.Int("batch", 1, "inference batch")
		regions  = flag.Bool("regions", false, "print the full region map")
		seed     = flag.Uint64("seed", 1, "weight seed for the l1 ranking")
	)
	flag.Parse()
	if err := checkFlags(*scale, *batch); err != nil {
		fmt.Fprintf(os.Stderr, "sealtrace: %v\n", err)
		os.Exit(2)
	}

	arch, err := models.ArchByName(*archName)
	if err != nil {
		fail(err)
	}
	scaled := arch
	if *scale != 1.0 {
		scaled = arch.Scale(*scale, 0)
	}
	model, err := models.Build(scaled, prng.New(*seed))
	if err != nil {
		fail(err)
	}
	opts := core.DefaultOptions()
	opts.Ratio = *ratio
	plan, err := core.NewPlan(model, opts)
	if err != nil {
		fail(err)
	}
	if err := plan.Verify(); err != nil {
		fail(fmt.Errorf("security invariant violated: %w", err))
	}
	layout, err := core.NewLayout(plan, *batch)
	if err != nil {
		fail(err)
	}

	fmt.Printf("%s  ratio=%.0f%%  scale=%.3g  batch=%d\n", scaled.Name, *ratio*100, *scale, *batch)
	fmt.Printf("weight layers: %d   total weights: %d (%.1f MB)\n",
		scaled.WeightLayerCount(), scaled.TotalWeights(), float64(scaled.TotalWeights())*4/1e6)
	fmt.Printf("encrypted weight bytes: %.1f%%   layout ciphertext: %.1f%%\n\n",
		plan.WeightEncFraction()*100, layout.EncryptedFraction()*100)

	fmt.Printf("%-24s %6s %9s %9s %9s %s\n", "layer", "kind", "encRows", "inEnc", "outEnc", "note")
	for _, lp := range plan.Layers {
		note := ""
		if lp.Full {
			note = "boundary: fully encrypted"
		}
		fmt.Printf("%-24s %6s %4d/%-4d %4d/%-4d %4d/%-4d %s\n",
			lp.Name, lp.Spec.Kind, lp.EncRowCount(), len(lp.EncRows),
			count(lp.InEnc), len(lp.InEnc), count(lp.OutEnc), len(lp.OutEnc), note)
	}

	p := trace.DefaultParams()
	p.Batch = *batch
	traces, err := trace.Network(p, plan, layout)
	if err != nil {
		fail(err)
	}
	var plain, enc int64
	for _, lt := range traces {
		for _, st := range lt.Streams {
			for _, op := range st {
				if op.NoMem {
					continue
				}
				if layout.Protected(op.Addr) {
					enc++
				} else {
					plain++
				}
			}
		}
	}
	fmt.Printf("\ngenerated traffic: %d line transfers (%.1f MB), %.1f%% ciphertext\n",
		plain+enc, float64(plain+enc)*64/1e6, 100*float64(enc)/float64(plain+enc))

	if *regions {
		fmt.Printf("\n%-28s %12s %10s %10s %8s\n", "region", "base", "size", "encBytes", "blocks")
		for _, r := range layout.Regions() {
			fmt.Printf("%-28s %#12x %10d %10d %8d\n", r.Name, r.Base, r.Size, r.EncryptedBytes(), r.Blocks())
		}
	}
}

// checkFlags rejects a width multiplier or batch no layout can be built
// with. The comparisons are written so that NaN fails them.
func checkFlags(scale float64, batch int) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("-scale %v: want a finite multiplier > 0", scale)
	}
	if batch < 1 {
		return fmt.Errorf("-batch %d: want at least 1", batch)
	}
	return nil
}

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "sealtrace: %v\n", err)
	os.Exit(1)
}
