// Command sealinfer runs streamed secure inference: a model's forward
// pass computed directly from the encrypted memory image, with per-layer
// weight panels verified and decrypted on the fly, each just before the
// GEMMs that consume it.
// It reports the wall-clock gap between the secure and plaintext
// forward passes — the functional counterpart of the paper's claim that
// smart encryption keeps the accelerator near its plaintext roofline.
//
// Usage:
//
//	sealinfer                          # VGG-16 and ResNet-18 summary
//	sealinfer -model vgg16 -batch 32   # one model, custom batch
//	sealinfer -ratio 1.0               # full encryption
//	sealinfer -int8                    # quantized int8 image + engine
//
// The times are one warm forward each, a quick look rather than a
// measurement: the secure engine's timing bounds are tests in
// internal/secure, and bench/ measures the engine under load.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"seal"
	"seal/internal/parallel"
	"seal/internal/prng"
)

func main() {
	var (
		model = flag.String("model", "vgg16,resnet18", "comma-separated architectures: vgg16, resnet18, resnet34")
		scale = flag.Float64("scale", 0.25, "channel-width multiplier applied to the architecture")
		ratio = flag.Float64("ratio", 0.5, "SE encryption ratio")
		batch = flag.Int("batch", 16, "inference batch size")
		panel = flag.Int("panel", 0, "panel byte budget (0 = engine default)")
		seed  = flag.Uint64("seed", 42, "weight-initialization seed")
		int8F = flag.Bool("int8", false, "seal the image in the quantized int8 layout and stream the int8 engine")
	)
	flag.Parse()
	if err := checkFlags(*scale, *batch); err != nil {
		fmt.Fprintf(os.Stderr, "sealinfer: %v\n", err)
		os.Exit(2)
	}

	for _, name := range strings.Split(*model, ",") {
		s, err := runOne(strings.TrimSpace(name), *scale, *ratio, *batch, *panel, *seed, *int8F)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sealinfer: %v\n", err)
			os.Exit(1)
		}
		mode := "float32"
		if *int8F {
			mode = "int8"
		}
		fmt.Printf("%-9s %s scale %.3g ratio %.0f%% batch %d workers %d: plaintext %.1f ms, secure %.1f ms (%.3fx), %d panels, %.2f MB decrypted, %.2f MB bypassed, logits %s\n",
			s.name, mode, *scale, *ratio*100, *batch, parallel.Workers(),
			s.plainMS, s.secureMS, s.secureMS/s.plainMS, s.stats.Panels,
			float64(s.stats.BytesDecrypted)/1e6, float64(s.stats.BytesCopied)/1e6,
			map[bool]string{true: "bit-identical", false: "MISMATCH"}[s.logitsEqual])
		if !s.logitsEqual {
			os.Exit(1)
		}
	}
}

// checkFlags rejects a width multiplier or batch no model can be built
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

type runSummary struct {
	name        string
	plainMS     float64
	secureMS    float64
	stats       seal.SecureStats
	logitsEqual bool
}

// buildPrepared bundles model, SE plan, encrypted image and streaming
// engine for one architecture through the one-call Prepare API. With
// int8 the image is sealed in the quantized layout and the bundled
// model's eval forward is the matching quantized reference.
func buildPrepared(name string, scale, ratio float64, panel int, seed uint64, int8 bool) (*seal.Prepared, error) {
	arch, err := seal.ArchByName(name)
	if err != nil {
		return nil, err
	}
	arch = arch.Scale(scale, 0)
	opts := seal.DefaultOptions()
	opts.Ratio = ratio
	popts := []seal.PrepareOption{
		seal.WithOptions(opts),
		seal.WithKey(seal.KeyFromString("sealinfer sealing key")),
	}
	if panel != 0 {
		// Forward nonzero budgets (including bad negative ones, which
		// Prepare rejects with seal.ErrBadOption) and keep 0 = default.
		popts = append(popts, seal.WithPanelBytes(panel))
	}
	if int8 {
		popts = append(popts, seal.WithInt8())
	}
	return seal.Prepare(arch, seed, popts...)
}

// runOne times one warm plaintext and one warm secure forward and
// checks the logits agree bit for bit (against the quantized eval
// forward when int8).
func runOne(name string, scale, ratio float64, batch, panel int, seed uint64, int8 bool) (runSummary, error) {
	p, err := buildPrepared(name, scale, ratio, panel, seed, int8)
	if err != nil {
		return runSummary{}, err
	}
	e, m, arch := p.Engine(), p.Model(), p.Arch()
	rng := prng.New(seed + 1)
	x := seal.NewTensor(batch, arch.InC, arch.InH, arch.InW)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	m.Forward(x, false)
	start := time.Now()
	want := m.Forward(x, false)
	plainMS := float64(time.Since(start).Microseconds()) / 1e3
	wantCopy := make([]float32, len(want.Data))
	copy(wantCopy, want.Data)

	if _, err := e.Forward(x); err != nil {
		return runSummary{}, err
	}
	e.ResetStats()
	start = time.Now()
	got, err := e.Forward(x)
	secureMS := float64(time.Since(start).Microseconds()) / 1e3
	if err != nil {
		return runSummary{}, err
	}

	equal := len(got.Data) == len(wantCopy)
	if equal {
		for i := range wantCopy {
			if got.Data[i] != wantCopy[i] {
				equal = false
				break
			}
		}
	}
	return runSummary{name: name, plainMS: plainMS, secureMS: secureMS, stats: e.Stats(), logitsEqual: equal}, nil
}
