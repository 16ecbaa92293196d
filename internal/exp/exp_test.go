package exp

import (
	"strings"
	"sync"
	"testing"
)

func TestTableFormatting(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"A", "B"}}
	tab.AddRow("row1", 1.5, 1000)
	tab.AddRow("row2", 0.123, 12.34)
	tab.Notes = append(tab.Notes, "hello")
	s := tab.String()
	for _, want := range []string{"T", "A", "B", "row1", "1.500", "1000", "12.3", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, s)
		}
	}
	if v, ok := tab.Cell("row2", "A"); !ok || v != 0.123 {
		t.Fatalf("Cell = %v %v", v, ok)
	}
	if _, ok := tab.Cell("nope", "A"); ok {
		t.Fatal("missing row found")
	}
	if _, ok := tab.Cell("row1", "C"); ok {
		t.Fatal("missing column found")
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"A", "B"}}
	tab.AddRow("plain", 1.5, 2)
	tab.Rows = append(tab.Rows, TableRow{Label: `weird,"label`, Values: []float64{3}, Text: []string{"", "N/A"}})
	var b strings.Builder
	if err := tab.CSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := "scheme,A,B\nplain,1.5,2\n\"weird,\"\"label\",3,N/A\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestTableIContents(t *testing.T) {
	tab := TableI()
	if len(tab.Rows) != 6 { // 5 published + modeled
		t.Fatalf("Table I rows = %d, want 6", len(tab.Rows))
	}
	// simulated throughput must match the spec column for every engine
	for _, r := range tab.Rows {
		paper, sim := r.Values[3], r.Values[4]
		if diff := sim/paper - 1; diff > 0.01 || diff < -0.01 {
			t.Fatalf("%s: simulated %v GB/s vs paper %v", r.Label, sim, paper)
		}
	}
	// N/A cells preserved
	if tab.Rows[0].Text[0] != "N/A" {
		t.Fatalf("Morioka area should be N/A, got %+v", tab.Rows[0].Text)
	}
}

func TestFigure1Shapes(t *testing.T) {
	cfg := QuickTimingConfig()
	cfg.CounterSweepKB = []int{24, 384}
	tab, err := Figure1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := tab.Cell("Baseline", "IPC")
	direct, _ := tab.Cell("Direct", "IPC")
	if direct >= base*0.85 {
		t.Fatalf("direct encryption too cheap: %v vs baseline %v", direct, base)
	}
	h24, _ := tab.Cell("Ctr-24", "CtrHitRate")
	h384, _ := tab.Cell("Ctr-384", "CtrHitRate")
	if h384 <= h24 {
		t.Fatalf("counter hit rate not increasing with size: %v vs %v", h24, h384)
	}
	c24, _ := tab.Cell("Ctr-24", "IPC")
	if c24 <= 0 || c24 >= base {
		t.Fatalf("counter-mode IPC %v out of range (baseline %v)", c24, base)
	}
}

// assertSchemeOrdering checks Baseline ≥ SEAL ≥ Full-encryption per
// column, with tolerance for simulator noise.
func assertSchemeOrdering(t *testing.T, tab *Table, sealRow, fullRow string) {
	t.Helper()
	for j, col := range tab.Columns {
		seal := tab.Row(sealRow).Values[j]
		full := tab.Row(fullRow).Values[j]
		base := tab.Row("Baseline").Values[j]
		if base != 1.0 {
			t.Fatalf("%s: baseline not normalized to 1 (%v)", col, base)
		}
		if seal < full*0.98 {
			t.Fatalf("%s: %s (%v) below %s (%v)", col, sealRow, seal, fullRow, full)
		}
		if seal > 1.1 || full > 1.05 {
			t.Fatalf("%s: encrypted schemes above baseline: seal %v full %v", col, seal, full)
		}
	}
}

func TestFigure5Ordering(t *testing.T) {
	cfg := QuickTimingConfig()
	tab, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Columns) != 4 || len(tab.Rows) != 5 {
		t.Fatalf("figure 5 shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
	assertSchemeOrdering(t, tab, "SEAL-D", "Direct")
	assertSchemeOrdering(t, tab, "SEAL-C", "Counter")
}

func TestFigure6Ordering(t *testing.T) {
	cfg := QuickTimingConfig()
	tab, err := Figure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Columns) != 5 {
		t.Fatalf("figure 6 columns %d", len(tab.Columns))
	}
	assertSchemeOrdering(t, tab, "SEAL-D", "Direct")
	assertSchemeOrdering(t, tab, "SEAL-C", "Counter")
	// POOL layers are more bandwidth-bound than CONV: full encryption
	// must hurt pools at least as hard as the average CONV layer.
	f5, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	poolAvg, convAvg := rowAvg(tab, "Direct"), rowAvg(f5, "Direct")
	if poolAvg > convAvg+0.05 {
		t.Fatalf("POOL direct avg %v not below CONV avg %v", poolAvg, convAvg)
	}
}

func rowAvg(t *Table, label string) float64 {
	r := t.Row(label)
	var s float64
	for _, v := range r.Values {
		s += v
	}
	return s / float64(len(r.Values))
}

func TestFigures7And8Consistency(t *testing.T) {
	cfg := QuickTimingConfig()
	nr, err := RunNetworks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f7 := nr.Figure7()
	f8 := nr.Figure8()
	assertSchemeOrdering(t, f7, "SEAL-D", "Direct")
	assertSchemeOrdering(t, f7, "SEAL-C", "Counter")
	for j, col := range f7.Columns {
		// IPC and latency are reciprocal: normalized values must multiply
		// to ≈1 (same instruction count, same workload)
		for _, scheme := range []string{"Direct", "SEAL-D"} {
			ipc := f7.Row(scheme).Values[j]
			lat := f8.Row(scheme).Values[j]
			if p := ipc * lat; p < 0.97 || p > 1.03 {
				t.Fatalf("%s/%s: IPC×latency = %v, want ≈1", col, scheme, p)
			}
		}
		// encryption must cost something even at quick scale
		if f8.Row("Direct").Values[j] <= 1.0 {
			t.Fatalf("%s: direct encryption did not increase latency", col)
		}
	}
}

func TestRatioSweepMonotone(t *testing.T) {
	cfg := QuickTimingConfig()
	tab, err := RatioSweep(cfg, []float64{0.2, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	low, _ := tab.Cell("ratio=20%", "SEAL-D")
	high, _ := tab.Cell("ratio=80%", "SEAL-D")
	if low < high {
		t.Fatalf("more encryption should not be faster: 20%%=%v 80%%=%v", low, high)
	}
}

func TestEngineCountAblation(t *testing.T) {
	cfg := QuickTimingConfig()
	tab, err := EngineCountAblation(cfg, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	one, _ := tab.Cell("1 engine(s)", "NormIPC")
	four, _ := tab.Cell("4 engine(s)", "NormIPC")
	if four <= one {
		t.Fatalf("more engines should help full encryption: 1→%v 4→%v", one, four)
	}
}

func TestFigure1Deterministic(t *testing.T) {
	cfg := QuickTimingConfig()
	cfg.CounterSweepKB = []int{24}
	a, err := Figure1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same config produced different results:\n%s\nvs\n%s", a, b)
	}
}

// quickSecurity runs RunSecurity on the quick configuration once per
// test binary. TestSecurityQuick checks its figures, and the other
// security tests attack its trained victim, as every study of the paper
// attacks one victim per network.
var quickSecurity = sync.OnceValues(func() (*SecurityResults, error) {
	return RunSecurity(QuickSecurityConfig())
})

// quickVictim returns the quick configuration's trained victim.
func quickVictim(t *testing.T) *Victim {
	t.Helper()
	res, err := quickSecurity()
	if err != nil {
		t.Fatal(err)
	}
	return res.Victims[0]
}

func TestSecurityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := QuickSecurityConfig()
	res, err := quickSecurity()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 1 {
		t.Fatalf("models = %d", len(res.Models))
	}
	m := res.Models[0]
	if m.WhiteAcc != m.VictimAcc {
		t.Fatalf("white-box acc %v != victim %v", m.WhiteAcc, m.VictimAcc)
	}
	if m.VictimAcc < 0.4 {
		t.Fatalf("victim accuracy %v too low for a meaningful experiment", m.VictimAcc)
	}
	if m.BlackAcc >= m.WhiteAcc {
		t.Fatalf("black-box acc %v not below white-box %v", m.BlackAcc, m.WhiteAcc)
	}
	// low ratio leaks more → substitute at 0.1 should be at least as good
	// as at 0.9 (tolerance for training noise)
	if m.SEALAcc[0.1] < m.SEALAcc[0.9]-0.1 {
		t.Fatalf("SEAL@10%% acc %v far below SEAL@90%% %v", m.SEALAcc[0.1], m.SEALAcc[0.9])
	}
	f3 := res.Figure3()
	f4 := res.Figure4()
	if f3.Row("White-box") == nil || f4.Row("Black-box") == nil {
		t.Fatal("figures missing series")
	}
	if len(f3.Rows) != 2+len(cfg.Ratios)+1 {
		t.Fatalf("figure 3 rows = %d", len(f3.Rows))
	}
}
