package exp

import (
	"fmt"

	"seal/internal/attack"
	"seal/internal/core"
	"seal/internal/models"
	"seal/internal/tensor"
)

// QuantizedSecurity measures how int8 weight quantization interacts
// with the SEAL security figure. Deploying a quantized image changes
// two things at once: the victim the adversary snoops is the
// quantize-dequantize roundtrip of the float model (so its accuracy —
// the IP being protected — may drop), and the ℓ1 importance ranking
// that decides which rows get encrypted is computed over rounded
// weights (so the plan itself may shift). For the trained victim v, the
// experiment reports, per encryption ratio:
//
//   - Float: substitute accuracy against the float victim (the PR 2
//     baseline figure),
//   - Int8: substitute accuracy against the quantized victim, whose
//     leaked plaintext rows are the dequantized int8 values an
//     attacker reads off the bus of a quantized image,
//   - PlanOverlap: the fraction of kernel rows on which the float plan
//     and the quantized-victim plan agree (encrypted vs plaintext).
//
// If per-output-channel symmetric quantization preserves the ℓ1
// ranking — the premise that lets one importance plan serve both
// deployments — the overlap stays near 1 and the two accuracy columns
// track each other.
func QuantizedSecurity(cfg SecurityConfig, v *Victim) (*Table, error) {
	victim, testData := v.Model, v.Test
	gen, rng := v.streams()
	advData := gen.Sample(cfg.Seeds * 4) // fixed budget, as in MetricAblation
	qvictim, err := victim.Clone(rng.Fork())
	if err != nil {
		return nil, err
	}
	quantizeModelWeights(qvictim)
	qvAcc := attack.Accuracy(qvictim, testData)

	t := &Table{
		Title:   fmt.Sprintf("Quantized security: float vs int8 victim (%s)", victim.Arch.Name),
		Columns: []string{"Float", "Int8", "PlanOverlap"},
	}
	t.AddRow("Victim", v.Acc, qvAcc, 1)
	logf(cfg.Progress, "[%s] victim accuracy: float %.3f, int8 %.3f", v.Name, v.Acc, qvAcc)

	for _, ratio := range cfg.Ratios {
		opts := core.DefaultOptions()
		opts.Ratio = ratio
		opts.Seed = cfg.Seed
		fplan, err := core.NewPlan(victim, opts)
		if err != nil {
			return nil, err
		}
		qplan, err := core.NewPlan(qvictim, opts)
		if err != nil {
			return nil, err
		}
		fsub, err := attack.SEALSubstitute(victim, fplan, advData, cfg.Subs, rng.Fork())
		if err != nil {
			return nil, err
		}
		qsub, err := attack.SEALSubstitute(qvictim, qplan, advData, cfg.Subs, rng.Fork())
		if err != nil {
			return nil, err
		}
		row := fmt.Sprintf("SEAL-%.0f%%", ratio*100)
		facc := attack.Accuracy(fsub, testData)
		qacc := attack.Accuracy(qsub, testData)
		overlap := planOverlap(fplan, qplan)
		t.AddRow(row, facc, qacc, overlap)
		logf(cfg.Progress, "[%s] %s: substitute acc float %.3f, int8 %.3f, plan overlap %.3f",
			v.Name, row, facc, qacc, overlap)
	}
	return t, nil
}

// quantizeModelWeights replaces every kernel weight in m with its
// per-output-channel int8 quantize-dequantize roundtrip — the values an
// adversary recovers from the plaintext rows (and scales header) of a
// quantized memory image. Biases and BN state stay float, as they do in
// the int8 layout.
func quantizeModelWeights(m *models.Model) {
	for _, w := range m.WeightLayers {
		spec := w.Spec
		var data []float32
		cols := spec.InC
		if spec.Kind == models.KindConv {
			cols *= spec.K * spec.K
			data = w.Conv.Weight.W.Data
		} else {
			data = w.FC.Weight.W.Data
		}
		km := &tensor.Tensor{Shape: []int{spec.OutC, cols}, Data: data}
		q := tensor.NewInt8Mat(spec.OutC, cols)
		scales := make([]float32, spec.OutC)
		tensor.QuantizeRowsInto(q, scales, km)
		for o := 0; o < spec.OutC; o++ {
			s := scales[o]
			row := data[o*cols : (o+1)*cols]
			qrow := q.Data[o*cols : (o+1)*cols]
			for j := range row {
				row[j] = float32(qrow[j]) * s
			}
		}
	}
}

// planOverlap returns the fraction of kernel rows whose
// encrypted/plaintext decision agrees between the two plans.
func planOverlap(a, b *core.Plan) float64 {
	var agree, total int
	for li, lp := range a.Layers {
		for c, enc := range lp.EncRows {
			total++
			if b.Layers[li].EncRows[c] == enc {
				agree++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(agree) / float64(total)
}
