package exp

import (
	"math"
	"reflect"
	"testing"

	"seal/internal/parallel"
)

// TestRunNetworksDeterministic guards the ways the Figure 7/8 dataset
// could silently stop being reproducible: nondeterministic scheduling in
// the worker pool (disjoint-write or ordered-reduction bugs), any future
// map-iteration ordering creeping into the scheme or architecture loops,
// the event-driven scheduler drifting from the per-cycle reference, and
// the headline numbers drifting from their golden. Two runs under the
// same pool must match exactly, a parallel run must match the
// forced-serial path bit for bit, and so must a reference-scheduler run.
func TestRunNetworksDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("four full RunNetworks passes")
	}
	// The simulator is deterministic, so the golden holds to float64
	// precision; its tolerance absorbs cross-architecture FMA contraction.
	var want struct{ DirectVGG, SealOverDirect, Tolerance float64 }
	readGolden(t, "fig7_golden.json", &want)
	cfg := QuickTimingConfig()

	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	serial, err := RunNetworks(cfg)
	if err != nil {
		t.Fatal(err)
	}

	parallel.SetWorkers(8)
	par1, err := RunNetworks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par2, err := RunNetworks(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(par1, par2) {
		t.Fatalf("two parallel runs differ:\n%+v\nvs\n%+v", par1, par2)
	}
	if !reflect.DeepEqual(serial, par1) {
		t.Fatalf("parallel run differs from SEAL_WORKERS=1 serial run:\n%+v\nvs\n%+v", serial, par1)
	}
	if s, p := serial.Figure7().String(), par1.Figure7().String(); s != p {
		t.Fatalf("Figure 7 tables differ:\n%s\nvs\n%s", s, p)
	}

	t.Setenv("SEAL_SIM_REF", "1")
	ref, err := RunNetworks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, par1) {
		t.Fatalf("per-cycle reference scheduler differs from the event-driven one:\n%+v\nvs\n%+v", ref, par1)
	}

	f7 := par1.Figure7()
	direct, ok1 := f7.Cell("Direct", "VGG-16")
	sealD, ok2 := f7.Cell("SEAL-D", "VGG-16")
	if !ok1 || !ok2 {
		t.Fatal("figure 7 table missing Direct/SEAL-D VGG-16 cells")
	}
	if math.Abs(direct-want.DirectVGG) > want.Tolerance || math.Abs(sealD/direct-want.SealOverDirect) > want.Tolerance {
		t.Fatalf("figure 7 drifted from its golden: Direct VGG-16 %.17g (want %.17g), SEAL-D/Direct %.17g (want %.17g)",
			direct, want.DirectVGG, sealD/direct, want.SealOverDirect)
	}
}
