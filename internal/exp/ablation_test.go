package exp

import "testing"

func TestL2SweepMonotone(t *testing.T) {
	cfg := QuickTimingConfig()
	tab, err := L2Sweep(cfg, []int{64, 512})
	if err != nil {
		t.Fatal(err)
	}
	small, _ := tab.Cell("L2=64KB/slice", "NormIPC")
	big, _ := tab.Cell("L2=512KB/slice", "NormIPC")
	if big < small-0.02 {
		t.Fatalf("bigger L2 made encryption cost more: %v -> %v", small, big)
	}
	hrSmall, _ := tab.Cell("L2=64KB/slice", "L2HitRate")
	hrBig, _ := tab.Cell("L2=512KB/slice", "L2HitRate")
	if hrBig <= hrSmall {
		t.Fatalf("L2 hit rate did not grow with size: %v -> %v", hrSmall, hrBig)
	}
}

func TestCounterGranularity(t *testing.T) {
	cfg := QuickTimingConfig()
	tab, err := CounterGranularity(cfg, []int{8, 1})
	if err != nil {
		t.Fatal(err)
	}
	hr8, _ := tab.Cell("8B/ctr", "CtrHitRate")
	hr1, _ := tab.Cell("1B/ctr", "CtrHitRate")
	if hr1 <= hr8 {
		t.Fatalf("split counters (1B) did not improve hit rate: %v vs %v", hr1, hr8)
	}
	x8, _ := tab.Cell("8B/ctr", "ExtraReads")
	x1, _ := tab.Cell("1B/ctr", "ExtraReads")
	if x1 >= x8 {
		t.Fatalf("split counters did not reduce counter fetches: %v vs %v", x1, x8)
	}
}

func TestMetricAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	tab, err := MetricAblation(QuickSecurityConfig(), quickVictim(t), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Row("l1") == nil || tab.Row("l2") == nil || tab.Row("random") == nil {
		t.Fatalf("missing metric rows: %v", tab.String())
	}
	// all three leak the same fraction of weights at a fixed ratio
	l1Leak, _ := tab.Cell("l1", "LeakedFrac")
	rndLeak, _ := tab.Cell("random", "LeakedFrac")
	if l1Leak != rndLeak {
		t.Fatalf("leaked fraction differs across metrics: %v vs %v", l1Leak, rndLeak)
	}
	// substitutes must not beat the victim
	v, _ := tab.Cell("Victim", "SubstituteAcc")
	for _, m := range []string{"l1", "l2", "random"} {
		acc, _ := tab.Cell(m, "SubstituteAcc")
		if acc > v+0.05 {
			t.Fatalf("%s substitute (%v) above victim (%v)", m, acc, v)
		}
	}
}

func TestIntegrityAblation(t *testing.T) {
	cfg := QuickTimingConfig()
	tab, err := Integrity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := tab.Cell("Direct", "NormIPC")
	directMAC, _ := tab.Cell("Direct+MAC", "NormIPC")
	seal, _ := tab.Cell("SEAL-D", "NormIPC")
	sealMAC, _ := tab.Cell("SEAL-D+MAC", "NormIPC")
	if directMAC > direct*1.01 {
		t.Fatalf("MACs made full encryption faster: %v vs %v", directMAC, direct)
	}
	if sealMAC <= directMAC {
		t.Fatalf("SEAL+MAC (%v) not above Direct+MAC (%v)", sealMAC, directMAC)
	}
	if seal < sealMAC {
		// authentication can only cost
		t.Fatalf("SEAL+MAC (%v) above SEAL (%v)", sealMAC, seal)
	}
}

func TestPruningPremiseOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	tab, err := PruningPremise(QuickSecurityConfig(), quickVictim(t), []float64{0.3})
	if err != nil {
		t.Fatal(err)
	}
	low, _ := tab.Cell("fraction=30%", "PruneLowL1")
	high, _ := tab.Cell("fraction=30%", "PruneHighL1")
	if low < high {
		t.Fatalf("low-l1 pruning (%v) hurt more than high-l1 (%v)", low, high)
	}
}
