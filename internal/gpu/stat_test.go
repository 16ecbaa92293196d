package gpu

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"seal/internal/prng"
)

// steadyStreams builds statistically stationary per-SM workloads: a
// fixed per-op distribution of compute and memory traffic over a large
// span, the regime the stat mode's steady-state extrapolation targets.
func steadyStreams(r *prng.Source, numSMs, ops int, span uint64, computeMax int) []Stream {
	streams := make([]Stream, numSMs)
	for i := range streams {
		st := make(Stream, ops)
		for j := range st {
			op := Op{Addr: uint64(r.Intn(int(span))) &^ 63}
			if computeMax > 0 {
				op.Compute = r.Intn(computeMax)
			}
			if r.Intn(5) == 0 {
				op.Write = true
			}
			st[j] = op
		}
		streams[i] = st
	}
	return streams
}

// randStatConfig perturbs the GTX480 model along the axes that change
// the steady state the stat mode must measure: SM/channel counts, issue
// width, MSHR depth, encryption mode, and integrity.
func randStatConfig(r *prng.Source) Config {
	cfg := ConfigGTX480()
	cfg.NumSMs = 2 + r.Intn(6)
	cfg.Channels = 1 + r.Intn(4)
	cfg.IssueWidth = 1 + r.Intn(3)
	cfg.MaxOutstanding = 8 + r.Intn(40)
	cfg.L2Slice.SizeBytes = 64 * 64 * 8 // small L2: sustained DRAM traffic
	mode := EncMode(r.Intn(3))
	var fn EncFn
	if r.Intn(2) == 0 {
		fn = func(addr uint64) bool { return addr&128 == 0 }
	}
	cfg = cfg.WithMode(mode, fn)
	if mode != ModeNone && r.Intn(2) == 0 {
		cfg.Integrity = true
	}
	return cfg
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// statTol is the stated stat-vs-exact tolerance of the randomized
// property test below: adversarially random configurations with small
// caches and mixed encryption modes. The Fig-7 headline metrics are
// held to the tighter ≤2% bound in internal/exp.
const statTol = 0.10

// TestStatMatchesExactWithinTolerance is the stat mode's validation
// property: over randomized configurations and stationary workloads,
// closing a run analytically must reproduce the exact scheduler's
// cycles and IPC within the stated tolerance, and the work totals (warp
// instructions, thread instructions, memory requests) exactly.
func TestStatMatchesExactWithinTolerance(t *testing.T) {
	if os.Getenv("SEAL_SIM_REF") == "1" {
		t.Skip("reference mode disables stat mode by design")
	}
	closedRuns := 0
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := prng.New(seed)
			cfg := randStatConfig(r)
			statCfg := cfg
			statCfg.Stat = DefaultStatConfig()

			exact := mustSim(t, cfg)
			stat := mustSim(t, statCfg)

			streams := steadyStreams(prng.New(seed*77), cfg.NumSMs, 3000+r.Intn(3000), 1<<22, 6)
			eRes := mustRun(t, exact, streams)
			sRes := mustRun(t, stat, streams)

			if sRes.WarpInsts != eRes.WarpInsts || sRes.ThreadInsts != eRes.ThreadInsts || sRes.MemRequests != eRes.MemRequests {
				t.Fatalf("work totals diverged: stat %+v exact %+v", sRes, eRes)
			}
			if e := relErr(sRes.Cycles, eRes.Cycles); e > statTol {
				t.Errorf("cycles off by %.1f%%: stat %.0f exact %.0f (ExactFrac %.2f)",
					e*100, sRes.Cycles, eRes.Cycles, sRes.ExactFrac)
			}
			if e := relErr(sRes.IPC, eRes.IPC); e > statTol {
				t.Errorf("IPC off by %.1f%%: stat %.1f exact %.1f", e*100, sRes.IPC, eRes.IPC)
			}
			// Synthesized memory-side counters carry the loosest bound:
			// writeback and counter-fetch traffic keeps ramping after the
			// measured window as the caches fill, so scaled estimates can
			// sit well off the exact counts at very low ExactFrac.
			if e := relErr(float64(sRes.DRAMBytes()), float64(eRes.DRAMBytes())); e > 3*statTol {
				t.Errorf("DRAM bytes off by %.1f%%: stat %d exact %d", e*100, sRes.DRAMBytes(), eRes.DRAMBytes())
			}
			t.Logf("ExactFrac %.3f cycErr %.2f%% ipcErr %.2f%% bytesErr %.2f%%",
				sRes.ExactFrac,
				relErr(sRes.Cycles, eRes.Cycles)*100,
				relErr(sRes.IPC, eRes.IPC)*100,
				relErr(float64(sRes.DRAMBytes()), float64(eRes.DRAMBytes()))*100)
			if sRes.ExactFrac < 1 {
				closedRuns++
			}
		})
	}
	// The property is vacuous if no run ever closed analytically.
	if closedRuns == 0 {
		t.Fatalf("no run closed analytically; stat mode never engaged")
	}
}

// TestStatNoConvergenceStaysExact pins the fallback: when the windows
// never converge (here: closing is never worthwhile by MinRemaining),
// the stat mode must return the exact scheduler's Result bit for bit.
func TestStatNoConvergenceStaysExact(t *testing.T) {
	if os.Getenv("SEAL_SIM_REF") == "1" {
		t.Skip("reference mode disables stat mode by design")
	}
	cfg := smallCfg()
	statCfg := cfg
	statCfg.Stat = DefaultStatConfig()
	statCfg.Stat.MinRemaining = 0.99 // nothing past the warm-up is "worth closing"

	exact := mustSim(t, cfg)
	stat := mustSim(t, statCfg)
	streams := steadyStreams(prng.New(9), cfg.NumSMs, 2000, 1<<20, 4)
	eRes := mustRun(t, exact, streams)
	sRes := mustRun(t, stat, streams)
	if !reflect.DeepEqual(eRes, sRes) {
		t.Fatalf("unclosed stat run diverged from exact:\nstat:  %+v\nexact: %+v", sRes, eRes)
	}
	if sRes.ExactFrac != 1 {
		t.Fatalf("unclosed run reported ExactFrac %v", sRes.ExactFrac)
	}
}

// TestStatReferencePrecedence pins the CI contract: reference mode
// (Config.Reference / SEAL_SIM_REF=1) silently disables stat mode, so
// the ground-truth path is exact under every configuration.
func TestStatReferencePrecedence(t *testing.T) {
	cfg := smallCfg()
	cfg.Stat = DefaultStatConfig()
	cfg.Reference = true
	plain := smallCfg()
	plain.Reference = true

	ref := mustSim(t, cfg)
	want := mustSim(t, plain)
	streams := steadyStreams(prng.New(3), cfg.NumSMs, 2500, 1<<20, 4)
	got := mustRun(t, ref, streams)
	exp := mustRun(t, want, streams)
	if !reflect.DeepEqual(got, exp) {
		t.Fatalf("reference+stat diverged from reference:\ngot:  %+v\nwant: %+v", got, exp)
	}
}

// TestStatResetClearsSynth pins that Reset drops synthesized counters
// along with the real ones: two identical runs from Reset must agree.
func TestStatResetClearsSynth(t *testing.T) {
	if os.Getenv("SEAL_SIM_REF") == "1" {
		t.Skip("reference mode disables stat mode by design")
	}
	cfg := ConfigGTX480().WithMode(ModeDirect, nil)
	cfg.NumSMs, cfg.Channels = 4, 2
	cfg.Stat = DefaultStatConfig()
	s := mustSim(t, cfg)
	streams := steadyStreams(prng.New(5), cfg.NumSMs, 4000, 1<<22, 5)
	first := mustRun(t, s, streams)
	s.Reset()
	second := mustRun(t, s, streams)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("run after Reset diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestStatConfigValidate exercises the knob validation.
func TestStatConfigValidate(t *testing.T) {
	if err := (StatConfig{}).Validate(); err != nil {
		t.Fatalf("zero StatConfig should be valid (disabled): %v", err)
	}
	good := DefaultStatConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default StatConfig invalid: %v", err)
	}
	for _, mut := range []func(*StatConfig){
		func(c *StatConfig) { c.WindowFrac = 0 },
		func(c *StatConfig) { c.WarmupFrac = -1 },
		func(c *StatConfig) { c.MaxWindowFrac = c.WindowFrac / 2 },
		func(c *StatConfig) { c.RelTol = 0 },
		func(c *StatConfig) { c.AbsTol = -0.1 },
		func(c *StatConfig) { c.LooseFactor = 0.5 },
		func(c *StatConfig) { c.TrendTol = 0 },
		func(c *StatConfig) { c.StableWindows = 0 },
		func(c *StatConfig) { c.MinRemaining = 1 },
	} {
		c := DefaultStatConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("invalid StatConfig accepted: %+v", c)
		}
	}
}
