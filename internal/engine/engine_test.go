package engine

import (
	"math"
	"testing"
)

const coreHz = 700e6

func TestTableIPresets(t *testing.T) {
	specs := TableI()
	if len(specs) != 5 {
		t.Fatalf("Table I has %d rows, want 5", len(specs))
	}
	// paper row order and throughput column
	wantGBs := []float64{1.5, 6.6, 8, 16, 19}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("row %d invalid: %v", i, err)
		}
		if s.ThroughputGBs != wantGBs[i] {
			t.Errorf("row %d throughput %v, want %v", i, s.ThroughputGBs, wantGBs[i])
		}
	}
	if SpecModeled.LatencyCycles != 20 || SpecModeled.ThroughputGBs != 8 {
		t.Fatalf("modeled spec %+v does not match paper §IV-A", SpecModeled)
	}
}

func TestBytesPerCycleDerivation(t *testing.T) {
	e := New(SpecModeled, coreHz)
	want := 8e9 / coreHz // ≈11.43 B/cycle
	if math.Abs(e.BytesPerCycle()-want) > 1e-9 {
		t.Fatalf("bytes/cycle = %v, want %v", e.BytesPerCycle(), want)
	}
}

func TestSingleLineLatency(t *testing.T) {
	e := New(SpecModeled, coreHz)
	done := e.Process(0, 64)
	want := 64/e.BytesPerCycle() + 20
	if math.Abs(done-want) > 1e-9 {
		t.Fatalf("done = %v, want %v", done, want)
	}
}

func TestPipelineThroughputLimit(t *testing.T) {
	// n back-to-back lines: completion spacing must equal the input slot
	// time, and total time ≈ n*slot + latency (pipelining).
	e := New(SpecModeled, coreHz)
	const n = 100
	var last float64
	for i := 0; i < n; i++ {
		last = e.Process(0, 64)
	}
	slot := 64 / e.BytesPerCycle()
	want := n*slot + 20
	if math.Abs(last-want) > 1e-6 {
		t.Fatalf("last completion %v, want %v", last, want)
	}
	if math.Abs(e.Stats().BusyCycle-n*slot) > 1e-6 {
		t.Fatalf("busy cycles %v, want %v", e.Stats().BusyCycle, n*slot)
	}
}

func TestIdleEngineIncursOnlyLatency(t *testing.T) {
	e := New(SpecModeled, coreHz)
	e.Process(0, 64)
	// a line arriving long after the first must not queue
	done := e.Process(1000, 64)
	want := 1000 + 64/e.BytesPerCycle() + 20
	if math.Abs(done-want) > 1e-9 {
		t.Fatalf("done = %v, want %v", done, want)
	}
}

func TestFasterEngineFinishesSooner(t *testing.T) {
	slow := New(SpecMorioka, coreHz) // 1.5 GB/s
	fast := New(SpecSayilar, coreHz) // 16 GB/s
	var slowDone, fastDone float64
	for i := 0; i < 50; i++ {
		slowDone = slow.Process(0, 64)
		fastDone = fast.Process(0, 64)
	}
	if fastDone >= slowDone {
		t.Fatalf("16 GB/s engine (%v) not faster than 1.5 GB/s (%v)", fastDone, slowDone)
	}
}

func TestSpecValidateRejectsBad(t *testing.T) {
	if err := (Spec{ThroughputGBs: 0}).Validate(); err == nil {
		t.Fatal("zero throughput accepted")
	}
	if err := (Spec{ThroughputGBs: 1, LatencyCycles: -1}).Validate(); err == nil {
		t.Fatal("negative latency accepted")
	}
}

func counterCfg(size int) CounterConfig {
	return CounterConfig{
		DataLineBytes:  64,
		CounterBytes:   8,
		CacheSizeBytes: size,
		CacheWays:      4,
		CounterBase:    1 << 40,
	}
}

func TestCounterConfigGeometry(t *testing.T) {
	cfg := counterCfg(24 * 1024)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.CountersPerLine() != 8 {
		t.Fatalf("counters per line = %d, want 8", cfg.CountersPerLine())
	}
	// data lines 0..7 share a counter block; line 8 starts the next
	a0 := cfg.CounterLineAddr(0)
	a7 := cfg.CounterLineAddr(7 * 64)
	a8 := cfg.CounterLineAddr(8 * 64)
	if a0 != a7 {
		t.Fatalf("lines 0 and 7 in different counter blocks: %#x vs %#x", a0, a7)
	}
	if a8 != a0+64 {
		t.Fatalf("line 8 counter block %#x, want %#x", a8, a0+64)
	}
	if a0 < cfg.CounterBase {
		t.Fatalf("counter block below region base")
	}
}

func TestCounterCacheHitMiss(t *testing.T) {
	cc := NewCounterCache(counterCfg(24 * 1024))
	r := cc.Lookup(0, false)
	if r.Hit {
		t.Fatal("cold counter lookup hit")
	}
	if r.MissAddr != cc.Config().CounterLineAddr(0) {
		t.Fatalf("miss addr %#x", r.MissAddr)
	}
	// any of the 8 lines covered by the same block now hits
	for line := uint64(0); line < 8; line++ {
		if r := cc.Lookup(line*64, false); !r.Hit {
			t.Fatalf("line %d counter missed after fill", line)
		}
	}
	if r := cc.Lookup(8*64, false); r.Hit {
		t.Fatal("uncovered line hit")
	}
}

func TestCounterIncrementsOnWrite(t *testing.T) {
	cc := NewCounterCache(counterCfg(24 * 1024))
	if cc.Value(0x80) != 0 {
		t.Fatal("counter nonzero before writes")
	}
	cc.Lookup(0x80, true)
	cc.Lookup(0x80, true)
	cc.Lookup(0x80, false) // read must not increment
	if cc.Value(0x80) != 2 {
		t.Fatalf("counter = %d, want 2", cc.Value(0x80))
	}
	if cc.Value(0xC0) != 0 {
		t.Fatal("neighbouring line counter affected")
	}
}

func TestCounterWritebackOnDirtyEviction(t *testing.T) {
	// tiny counter cache: 1KB, 4-way, 64B lines → 4 sets. Writes dirty the
	// blocks; streaming far apart evicts dirty blocks → writebacks.
	cc := NewCounterCache(counterCfg(1024))
	sawWriteback := false
	for i := uint64(0); i < 64; i++ {
		res := cc.Lookup(i*64*8*4, true) // each touch maps to a new counter block, stride sets
		if res.Writeback {
			sawWriteback = true
			if res.WritebackAddr < cc.Config().CounterBase {
				t.Fatalf("writeback addr %#x outside counter region", res.WritebackAddr)
			}
		}
	}
	if !sawWriteback {
		t.Fatal("no dirty counter writebacks observed")
	}
}

func TestCounterCacheHitRateGrowsWithSize(t *testing.T) {
	// The Figure-1b premise at the counter-cache level.
	trace := make([]uint64, 0, 50000)
	for i := 0; i < 50000; i++ {
		trace = append(trace, uint64(i%12000)*64)
	}
	prev := -1.0
	for _, size := range []int{24 * 1024, 96 * 1024, 384 * 1024} {
		cc := NewCounterCache(counterCfg(size))
		for _, a := range trace {
			cc.Lookup(a, false)
		}
		hr := cc.HitRate()
		if hr < prev {
			t.Fatalf("hit rate fell from %v to %v at size %d", prev, hr, size)
		}
		prev = hr
	}
	if prev < 0.9 {
		t.Fatalf("384KB counter cache hit rate %v, want ≥0.9 for 12000-line working set", prev)
	}
}
