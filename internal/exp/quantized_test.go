package exp

import "testing"

// TestQuantizedSecurity runs the reduced quantized-security study and
// pins its structural claims: the int8 victim stays close to the float
// victim (the IP survives quantization), and per-output-channel
// rounding barely moves the ℓ1 importance plan.
func TestQuantizedSecurity(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := QuickSecurityConfig()
	cfg.Ratios = []float64{0.5, 0.1}
	tab, err := QuantizedSecurity(cfg, quickVictim(t))
	if err != nil {
		t.Fatal(err)
	}
	vf, ok := tab.Cell("Victim", "Float")
	if !ok {
		t.Fatalf("missing victim row: %v", tab.String())
	}
	vq, _ := tab.Cell("Victim", "Int8")
	if vq < vf-0.05 {
		t.Fatalf("quantization cost the victim %.3f accuracy (float %.3f, int8 %.3f)", vf-vq, vf, vq)
	}
	for _, row := range []string{"SEAL-50%", "SEAL-10%"} {
		if tab.Row(row) == nil {
			t.Fatalf("missing row %s: %v", row, tab.String())
		}
		ov, _ := tab.Cell(row, "PlanOverlap")
		if ov < 0.8 {
			t.Fatalf("%s: quantization moved the importance plan too much (overlap %.3f)", row, ov)
		}
		facc, _ := tab.Cell(row, "Float")
		qacc, _ := tab.Cell(row, "Int8")
		if d := facc - qacc; d > 0.2 || d < -0.2 {
			t.Fatalf("%s: float vs int8 substitute accuracy diverged: %.3f vs %.3f", row, facc, qacc)
		}
	}
}
