package exp

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// readGolden decodes testdata/<name> into v. A missing or malformed
// golden fails the test: a golden check that cannot find its golden
// must not pass.
func readGolden(t *testing.T, name string, v any) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestFig3CellGolden reruns one reduced Figure-3 cell, the quick
// security configuration narrowed to ResNet-18 at ratio 0.5, against
// the quick victim, and requires every output to equal
// testdata/fig3_golden.json within its tolerance (0: training is
// bit-identical run to run and at any worker count, so the accuracies
// must not move at all). TestSecurityQuick cannot carry this check:
// each ratio's substitute trains on the next fork of one random stream,
// so ratio 0.5, second of its three ratios, gets different numbers
// there.
func TestFig3CellGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	var want struct {
		Arch                                   string
		Ratio                                  float64
		VictimAcc, WhiteAcc, BlackAcc, SEALAcc float64
		WhiteTrans, BlackTrans, SEALTrans      float64
		LeakedFrac                             float64
		Tolerance                              float64
	}
	readGolden(t, "fig3_golden.json", &want)
	v := quickVictim(t)
	cfg := QuickSecurityConfig()
	cfg.Ratios = []float64{0.5}
	if want.Arch != v.Name || want.Ratio != cfg.Ratios[0] {
		t.Fatalf("golden is for %s at ratio %v, test runs %s at %v", want.Arch, want.Ratio, v.Name, cfg.Ratios[0])
	}
	m, err := securityModel(cfg, v)
	if err != nil {
		t.Fatal(err)
	}
	r := cfg.Ratios[0]
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"victimAcc", m.VictimAcc, want.VictimAcc},
		{"whiteAcc", m.WhiteAcc, want.WhiteAcc},
		{"blackAcc", m.BlackAcc, want.BlackAcc},
		{"sealAcc", m.SEALAcc[r], want.SEALAcc},
		{"whiteTrans", m.WhiteTrans, want.WhiteTrans},
		{"blackTrans", m.BlackTrans, want.BlackTrans},
		{"sealTrans", m.SEALTrans[r], want.SEALTrans},
		{"leakedFrac", m.LeakedFrac[r], want.LeakedFrac},
	} {
		if math.Abs(c.got-c.want) > want.Tolerance {
			t.Errorf("%s = %.17g, golden %.17g", c.name, c.got, c.want)
		}
	}
}
