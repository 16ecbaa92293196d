package gpu

import (
	"fmt"
	"reflect"
	"testing"

	"seal/internal/prng"
)

// randStreams builds a randomized per-SM workload mixing compute,
// reads and writes over a small address space (to exercise cache
// conflicts, row conflicts and queue backpressure).
func randStreams(r *prng.Source, numSMs, maxOps int, span uint64) []Stream {
	streams := make([]Stream, numSMs)
	for i := range streams {
		n := r.Intn(maxOps) + 1
		st := make(Stream, n)
		for j := range st {
			switch r.Intn(5) {
			case 0:
				st[j] = Op{Compute: r.Intn(30), NoMem: true}
			case 1:
				st[j] = Op{Compute: r.Intn(4), Addr: uint64(r.Intn(int(span))) &^ 63, Write: true}
			default:
				st[j] = Op{Compute: r.Intn(8), Addr: uint64(r.Intn(int(span))) &^ 63}
			}
		}
		streams[i] = st
	}
	return streams
}

// randEquivConfig perturbs the GTX480 model along the axes the two
// schedulers treat differently: SM and channel counts, interconnect
// latency (integer and fractional), issue width, MSHR depth, queue
// depth, encryption mode and integrity.
func randEquivConfig(r *prng.Source) Config {
	cfg := ConfigGTX480()
	cfg.NumSMs = 1 + r.Intn(4)
	cfg.Channels = 1 + r.Intn(3)
	cfg.IssueWidth = 1 + r.Intn(3)
	cfg.MaxOutstanding = 1 + r.Intn(12)
	cfg.InterconnectLat = []float64{0, 0.5, 1, 2, 7.25, 16, 16.5}[r.Intn(7)]
	cfg.L2Latency = []float64{0, 1.5, 20}[r.Intn(3)]
	cfg.DRAM.QueueDepth = 2 + r.Intn(10)
	cfg.L2Slice.SizeBytes = 64 * 64 * 8 // small L2: force misses and evictions
	mode := EncMode(r.Intn(3))
	var fn EncFn
	switch r.Intn(3) {
	case 0:
		fn = nil // protect everything (or nothing for ModeNone)
	case 1:
		fn = func(addr uint64) bool { return addr&128 == 0 }
	case 2:
		fn = func(addr uint64) bool { return addr < 1<<19 }
	}
	cfg = cfg.WithMode(mode, fn)
	if mode != ModeNone && r.Intn(2) == 0 {
		cfg.Integrity = true
	}
	return cfg
}

// TestFastForwardMatchesReference is the core equivalence property of
// the event-driven scheduler: for randomized configurations and
// workloads, the frame-based fast path must produce a Result — cycles,
// instruction and stall counts, IPC, and every per-partition cache,
// DRAM, engine and counter statistic — bit-identical to the per-cycle
// reference scheduler, including across warm back-to-back Runs.
func TestFastForwardMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := prng.New(seed)
			cfg := randEquivConfig(r)
			refCfg := cfg
			refCfg.Reference = true

			fast := mustSim(t, cfg)
			ref := mustSim(t, refCfg)

			// Two back-to-back Runs exercise warm caches and nonzero
			// start times.
			for k := 0; k < 2; k++ {
				streams := randStreams(prng.New(seed*1000+uint64(k)), cfg.NumSMs, 120, 1<<20)
				fRes := mustRun(t, fast, streams)
				rRes := mustRun(t, ref, streams)
				if !reflect.DeepEqual(fRes, rRes) {
					t.Fatalf("run %d diverged:\nfast: %+v\nref:  %+v", k, fRes, rRes)
				}
				if fast.Now() != ref.Now() {
					t.Fatalf("run %d clock diverged: fast %v ref %v", k, fast.Now(), ref.Now())
				}
			}
		})
	}
}

// TestFastForwardMatchesReferenceEmptyStreams pins the degenerate
// cases: SMs with empty streams and runs with no streams at all must
// burn the same number of cycles in both schedulers.
func TestFastForwardMatchesReferenceEmptyStreams(t *testing.T) {
	for _, streams := range [][]Stream{
		nil,
		{{}, {}},
		{{}, {{Compute: 3, NoMem: true}}},
	} {
		cfg := smallCfg()
		refCfg := cfg
		refCfg.Reference = true
		fast := mustSim(t, cfg)
		ref := mustSim(t, refCfg)
		fRes := mustRun(t, fast, streams)
		rRes := mustRun(t, ref, streams)
		if !reflect.DeepEqual(fRes, rRes) {
			t.Fatalf("streams %v diverged:\nfast: %+v\nref:  %+v", streams, fRes, rRes)
		}
	}
}
