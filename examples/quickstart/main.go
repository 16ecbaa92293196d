// Quickstart: plan SEAL's smart encryption for a ResNet-18, inspect the
// criticality ranking, and measure the bandwidth effect on the simulated
// GPU — the 60-second tour of the public API.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"seal"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the tour, writing its report to w.
func run(w io.Writer) error {
	// 1. Prepare the whole pipeline in one call: model, smart-encryption
	// plan, EMalloc layout, sealed memory image and streaming secure
	// engine. Scale(0.25, 0) shrinks channel widths 4× so the example
	// runs instantly; geometry and layer structure are untouched.
	arch := seal.ResNet18().Scale(0.25, 0)
	p, err := seal.Prepare(arch, 42,
		seal.WithKey(seal.KeyFromString("quickstart demo key")))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "model: %s, %d weight layers, %d parameters\n",
		arch.Name, arch.WeightLayerCount(), arch.TotalWeights())

	// 2. Inspect the smart-encryption decision, made at the paper's
	// default 50% ratio: each layer's kernel rows are ranked by l1-norm
	// and the most critical half is encrypted, along with the matching
	// feature-map channels.
	plan := p.Plan()
	if err := plan.Verify(); err != nil {
		return err // the SE security invariant must hold
	}
	lp := plan.Layers[4] // a mid-network conv layer
	fmt.Fprintf(w, "layer %s: %d/%d kernel rows encrypted (most critical by l1-norm)\n",
		lp.Name, lp.EncRowCount(), len(lp.EncRows))
	fmt.Fprintf(w, "weights encrypted overall: %.1f%%\n", 100*plan.WeightEncFraction())

	// 3. The EMalloc memory layout: every tensor gets a DRAM region with
	// per-line ciphertext marking. The sealed image holds bytes for the
	// weight regions only: the planned blocks as real AES-GCM
	// ciphertext under the sealing key, the rest as plaintext with a
	// GMAC tag, so tampering with either is detected.
	layout := p.Layout()
	fmt.Fprintf(w, "address space: %d regions, %.1f%% ciphertext bytes\n",
		len(layout.Regions()), 100*layout.EncryptedFraction())

	// 4. Run secure inference straight from the sealed image: panels are
	// verified and decrypted on the fly, and the logits are
	// bit-identical to the plaintext forward pass.
	x := seal.NewTensor(1, arch.InC, arch.InH, arch.InW)
	for i := range x.Data {
		x.Data[i] = float32(i%7)/7 - 0.5
	}
	logits, err := p.Forward(x)
	if err != nil {
		return err
	}
	plain := p.Model().Forward(x, false)
	match := true
	for i := range logits.Data {
		if logits.Data[i] != plain.Data[i] {
			match = false
		}
	}
	fmt.Fprintf(w, "secure forward: %d logits, bit-identical to plaintext: %v\n",
		len(logits.Data), match)

	// 5. Feel the bandwidth effect: stream the largest SE-planned weight
	// region through the simulated GTX480 under three protections. (A
	// boundary layer would show no SEAL benefit — its weights are fully
	// encrypted by design.)
	var best *seal.LayerPlan
	for _, cand := range plan.Layers {
		if cand.Full {
			continue
		}
		if best == nil || cand.Spec.WeightCount() > best.Spec.WeightCount() {
			best = cand
		}
	}
	region := layout.Region("w:" + best.Name)
	fmt.Fprintf(w, "streaming weights of %s (%d KB, %d/%d rows encrypted)\n",
		best.Name, region.Size/1024, best.EncRowCount(), len(best.EncRows))
	streams := readRegion(region)
	for _, mode := range []struct {
		name string
		m    seal.EncMode
		fn   func(uint64) bool
	}{
		{"baseline (no encryption)", seal.ModeNone, nil},
		{"full direct encryption", seal.ModeDirect, nil},
		{"SEAL selective encryption", seal.ModeDirect, layout.Protected},
	} {
		cfg := seal.GTX480().WithMode(mode.m, mode.fn)
		sim, err := seal.NewSim(cfg)
		if err != nil {
			return err
		}
		res, err := sim.Run(streams)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-28s %8.0f cycles  (%.1f GB/s effective)\n",
			mode.name, res.Cycles,
			float64(res.DRAMBytes())/res.Cycles*cfg.CoreClockHz/1e9)
	}
	return nil
}

// readRegion builds parallel sequential read streams over a region, as
// the SMs of a layer kernel would issue them.
func readRegion(r *seal.Region) []seal.Stream {
	const nStreams = 8
	streams := make([]seal.Stream, nStreams)
	i := 0
	for a := r.Base; a < r.Base+r.Size; a += 64 {
		streams[i%nStreams] = append(streams[i%nStreams], seal.Op{Addr: a})
		i++
	}
	return streams
}
