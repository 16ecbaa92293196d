package gpu

import (
	"testing"
)

// smallCfg shrinks GTX480 to 2 SMs / 2 channels for fast tests.
func smallCfg() Config {
	cfg := ConfigGTX480()
	cfg.NumSMs = 2
	cfg.Channels = 2
	return cfg
}

// computeStream returns a pure-compute stream of n warp instructions.
func computeStream(n int) Stream {
	return Stream{{Compute: n, NoMem: true}}
}

// readStream returns a stream of n sequential line reads with interleaved
// compute, starting at base.
func readStream(n int, base uint64, computePer int) Stream {
	st := make(Stream, n)
	for i := range st {
		st[i] = Op{Compute: computePer, Addr: base + uint64(i)*64}
	}
	return st
}

// writeStream returns a stream of n sequential line writes.
func writeStream(n int, base uint64) Stream {
	st := make(Stream, n)
	for i := range st {
		st[i] = Op{Addr: base + uint64(i)*64, Write: true}
	}
	return st
}

func mustSim(t testing.TB, cfg Config) *Sim {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustRun(t testing.TB, s *Sim, streams []Stream) Result {
	t.Helper()
	res, err := s.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigGTX480Valid(t *testing.T) {
	cfg := ConfigGTX480()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumSMs != 15 || cfg.Channels != 6 {
		t.Fatalf("GTX480 shape wrong: %d SMs, %d channels", cfg.NumSMs, cfg.Channels)
	}
	// total DRAM bandwidth ≈ 177 GB/s → ≈253 B/core-cycle
	total := cfg.DRAM.BytesPerCycle * float64(cfg.Channels)
	if total < 250 || total > 257 {
		t.Fatalf("total DRAM bandwidth %v B/cycle, want ≈253", total)
	}
	// engine bandwidth must be far below channel bandwidth (the paper's gap)
	engBPC := cfg.EngineSpec.ThroughputGBs * 1e9 / cfg.CoreClockHz
	if engBPC > cfg.DRAM.BytesPerCycle/2 {
		t.Fatalf("no bandwidth gap: engine %v vs channel %v B/cycle", engBPC, cfg.DRAM.BytesPerCycle)
	}
}

func TestComputeBoundIPC(t *testing.T) {
	cfg := smallCfg()
	s := mustSim(t, cfg)
	res := mustRun(t, s, []Stream{computeStream(10000), computeStream(10000)})
	// 2 SMs × IssueWidth 2 × 32 lanes = 128 thread-insts/cycle peak
	if res.IPC < 120 || res.IPC > 128.5 {
		t.Fatalf("compute-bound IPC = %v, want ≈128", res.IPC)
	}
	if res.ThreadInsts != 2*10000*32 {
		t.Fatalf("thread insts = %d", res.ThreadInsts)
	}
}

func TestMemoryRequestsComplete(t *testing.T) {
	cfg := smallCfg()
	s := mustSim(t, cfg)
	res := mustRun(t, s, []Stream{readStream(100, 0, 1)})
	if res.MemRequests != 100 {
		t.Fatalf("mem requests = %d", res.MemRequests)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles elapsed")
	}
	var reads uint64
	for _, p := range res.Parts {
		reads += p.DRAM.Reads
	}
	if reads == 0 {
		t.Fatal("no DRAM reads recorded")
	}
}

func TestL2HitsAvoidDRAM(t *testing.T) {
	cfg := smallCfg()
	s := mustSim(t, cfg)
	// 100 reads of the same line: 1 DRAM fetch, 99 L2 hits
	st := make(Stream, 100)
	for i := range st {
		st[i] = Op{Addr: 0x1000}
	}
	res := mustRun(t, s, []Stream{st})
	var reads uint64
	for _, p := range res.Parts {
		reads += p.DRAM.Reads
	}
	if reads != 1 {
		t.Fatalf("DRAM reads = %d, want 1", reads)
	}
	if res.L2HitRate() < 0.98 {
		t.Fatalf("L2 hit rate %v", res.L2HitRate())
	}
}

func TestDirectEncryptionSlowsBandwidthBoundRun(t *testing.T) {
	const n = 4000
	base := mustSim(t, smallCfg())
	b := mustRun(t, base, []Stream{readStream(n, 0, 1), readStream(n, 1<<20, 1)})

	enc := mustSim(t, smallCfg().WithMode(ModeDirect, nil))
	e := mustRun(t, enc, []Stream{readStream(n, 0, 1), readStream(n, 1<<20, 1)})

	if e.IPC >= b.IPC*0.8 {
		t.Fatalf("direct encryption too cheap: baseline IPC %v, encrypted %v", b.IPC, e.IPC)
	}
	if e.EngineBytes() == 0 {
		t.Fatal("no engine traffic in direct mode")
	}
	if b.EngineBytes() != 0 {
		t.Fatal("baseline used the engine")
	}
}

func TestCounterModeUsesCounterCache(t *testing.T) {
	cfg := smallCfg().WithMode(ModeCounter, nil)
	s := mustSim(t, cfg)
	res := mustRun(t, s, []Stream{readStream(2000, 0, 1)})
	var ctrAccesses uint64
	for _, p := range res.Parts {
		ctrAccesses += p.Counter.Hits + p.Counter.Misses
	}
	if ctrAccesses == 0 {
		t.Fatal("counter mode never consulted the counter cache")
	}
	// sequential lines share counter blocks (8 per block) → high hit rate
	if res.CounterHitRate() < 0.8 {
		t.Fatalf("sequential counter hit rate %v, want ≥0.8", res.CounterHitRate())
	}
}

func TestCounterMissesAddDRAMTraffic(t *testing.T) {
	// Strided reads touch a new counter block almost every time with a
	// tiny counter cache → extra DRAM reads for counter blocks.
	cfg := smallCfg().WithMode(ModeCounter, nil)
	cfg.Counter.CacheSizeBytes = 1024
	s := mustSim(t, cfg)
	n := 1500
	st := make(Stream, n)
	for i := range st {
		st[i] = Op{Addr: uint64(i) * 64 * 8 * 64} // new counter block + new set each time
	}
	res := mustRun(t, s, []Stream{st})
	var extra uint64
	for _, p := range res.Parts {
		extra += p.ExtraCounterReads
	}
	if extra < uint64(n)/2 {
		t.Fatalf("extra counter reads = %d, want ≥%d", extra, n/2)
	}
	var dramReads uint64
	for _, p := range res.Parts {
		dramReads += p.DRAM.Reads
	}
	if dramReads < uint64(n)+extra/2 {
		t.Fatalf("DRAM reads %d do not reflect counter fetches (extra %d)", dramReads, extra)
	}
}

func TestSelectiveEncryptionBetweenBaselineAndFull(t *testing.T) {
	const n = 4000
	streams := func() []Stream {
		return []Stream{readStream(n, 0, 1), readStream(n, 1<<20, 1)}
	}
	b := mustRun(t, mustSim(t, smallCfg()), streams())
	full := mustRun(t, mustSim(t, smallCfg().WithMode(ModeDirect, nil)), streams())
	// SEAL-style: only even-numbered lines are ciphertext (50%)
	half := mustRun(t, mustSim(t, smallCfg().WithMode(ModeDirect, func(addr uint64) bool {
		return (addr/64)%2 == 0
	})), streams())

	if !(half.IPC > full.IPC && half.IPC < b.IPC) {
		t.Fatalf("50%% encryption IPC %v not between full %v and baseline %v", half.IPC, full.IPC, b.IPC)
	}
	if half.EngineBytes() >= full.EngineBytes() {
		t.Fatalf("50%% encryption engine bytes %d not below full %d", half.EngineBytes(), full.EngineBytes())
	}
}

func TestWritesGenerateWritebacks(t *testing.T) {
	cfg := smallCfg()
	s := mustSim(t, cfg)
	// write far more lines than L2 capacity → dirty evictions → DRAM writes
	n := 3 * cfg.L2Slice.SizeBytes * cfg.Channels / cfg.LineBytes
	res := mustRun(t, s, []Stream{writeStream(n, 0)})
	var writes uint64
	for _, p := range res.Parts {
		writes += p.DRAM.Writes
	}
	if writes == 0 {
		t.Fatal("no DRAM writes from dirty evictions")
	}
	if writes > uint64(n) {
		t.Fatalf("more writebacks (%d) than written lines (%d)", writes, n)
	}
}

func TestEncryptedWritebacksUseEngine(t *testing.T) {
	cfg := smallCfg().WithMode(ModeDirect, nil)
	s := mustSim(t, cfg)
	n := 3 * cfg.L2Slice.SizeBytes * cfg.Channels / cfg.LineBytes
	res := mustRun(t, s, []Stream{writeStream(n, 0)})
	if res.EngineBytes() == 0 {
		t.Fatal("encrypted writebacks bypassed the engine")
	}
}

func TestTooManyStreamsRejected(t *testing.T) {
	cfg := smallCfg()
	s := mustSim(t, cfg)
	streams := make([]Stream, cfg.NumSMs+1)
	for i := range streams {
		streams[i] = computeStream(1)
	}
	if _, err := s.Run(streams); err == nil {
		t.Fatal("oversubscribed run accepted")
	}
}

func TestWarmCachePersistsAcrossRuns(t *testing.T) {
	cfg := smallCfg()
	s := mustSim(t, cfg)
	mustRun(t, s, []Stream{readStream(50, 0, 0)})
	res2 := mustRun(t, s, []Stream{readStream(50, 0, 0)})
	var reads uint64
	for _, p := range res2.Parts {
		reads += p.DRAM.Reads
	}
	// second run re-reads the same 50 lines: all should hit in L2,
	// leaving the cumulative DRAM read count at the first run's 50.
	if reads != 50 {
		t.Fatalf("cumulative DRAM reads after warm rerun = %d, want 50", reads)
	}
}

func TestCounterModeSlowerWithTinyCounterCache(t *testing.T) {
	// two passes over a strided working set: a big counter cache retains
	// the blocks between passes, a tiny one thrashes
	mkStreams := func() []Stream {
		st := make(Stream, 0, 3000)
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 1500; i++ {
				st = append(st, Op{Addr: uint64(i) * 8 * 64 * 2}) // one counter block per partition-local stride
			}
		}
		return []Stream{st}
	}
	big := smallCfg().WithMode(ModeCounter, nil)
	big.Counter.CacheSizeBytes = 256 * 1024
	rBig := mustRun(t, mustSim(t, big), mkStreams())

	tiny := smallCfg().WithMode(ModeCounter, nil)
	tiny.Counter.CacheSizeBytes = 1024
	rTiny := mustRun(t, mustSim(t, tiny), mkStreams())

	if rTiny.CounterHitRate() >= rBig.CounterHitRate() {
		t.Fatalf("tiny counter cache hit rate %v not below big %v", rTiny.CounterHitRate(), rBig.CounterHitRate())
	}
	if rTiny.IPC > rBig.IPC {
		t.Fatalf("tiny counter cache IPC %v above big cache %v", rTiny.IPC, rBig.IPC)
	}
}

func TestModeString(t *testing.T) {
	if ModeNone.String() != "Baseline" || ModeDirect.String() != "Direct" || ModeCounter.String() != "Counter" {
		t.Fatal("mode names wrong")
	}
}

func TestStreamAccounting(t *testing.T) {
	st := Stream{
		{Compute: 5, Addr: 0},
		{Compute: 3, NoMem: true},
		{Addr: 64, Write: true},
	}
	if st.WarpInsts() != 5+1+3+0+1 {
		t.Fatalf("warp insts = %d", st.WarpInsts())
	}
	if st.MemOps() != 2 {
		t.Fatalf("mem ops = %d", st.MemOps())
	}
}

func TestEngineCountGapMatchesPaper(t *testing.T) {
	// §II-B: six engines → 48 GB/s total vs 177 GB/s bus. Verify the
	// configuration reproduces the 3.7× gap.
	cfg := ConfigGTX480()
	engTotal := cfg.EngineSpec.ThroughputGBs * float64(cfg.Channels)
	busTotal := cfg.DRAM.BytesPerCycle * float64(cfg.Channels) * cfg.CoreClockHz / 1e9
	if engTotal != 48 {
		t.Fatalf("total engine bandwidth %v GB/s, want 48", engTotal)
	}
	gap := busTotal / engTotal
	if gap < 3.4 || gap > 4.0 {
		t.Fatalf("bandwidth gap %v, want ≈3.7", gap)
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := ConfigGTX480()
	cfg.NumSMs = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
	cfg = ConfigGTX480().WithMode(ModeCounter, nil)
	cfg.Counter.CounterBytes = 7
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid counter config accepted")
	}
}

var benchSink Result

func BenchmarkSimMemoryStream(b *testing.B) {
	cfg := smallCfg()
	for i := 0; i < b.N; i++ {
		s := mustSim(b, cfg)
		benchSink = mustRun(b, s, []Stream{readStream(2000, 0, 1), readStream(2000, 1<<20, 1)})
	}
}
