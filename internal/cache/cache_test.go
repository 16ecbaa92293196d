package cache

import (
	"testing"
	"testing/quick"

	"seal/internal/prng"
)

func cfg4KB() Config { return Config{SizeBytes: 4096, LineBytes: 64, Ways: 4} }

func TestConfigValidate(t *testing.T) {
	if err := cfg4KB().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{SizeBytes: 4096, LineBytes: 48, Ways: 4}, // line not power of two
		{SizeBytes: 4096, LineBytes: 64, Ways: 0}, // zero ways
		{SizeBytes: 1000, LineBytes: 64, Ways: 4}, // size not divisible
		{SizeBytes: 4096, LineBytes: 64, Ways: 3}, // size not divisible by ways
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestSetsCount(t *testing.T) {
	if s := cfg4KB().Sets(); s != 16 {
		t.Fatalf("sets = %d, want 16", s)
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := New(cfg4KB())
	if r := c.Access(0x1000, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := c.Access(0x1004, false); !r.Hit {
		t.Fatal("same-line access missed")
	}
	if r := c.Access(0x1040, false); r.Hit {
		t.Fatal("next line hit without being fetched")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// 16 sets × 64B lines: addresses that differ by 16*64=1024 map to the
	// same set. Fill the 4 ways, touch the first, insert a 5th: the LRU
	// victim must be the second line, not the recently touched first.
	c := New(cfg4KB())
	base := uint64(0)
	stride := uint64(1024)
	for i := uint64(0); i < 4; i++ {
		c.Access(base+i*stride, false)
	}
	c.Access(base, false) // refresh line 0
	r := c.Access(base+4*stride, false)
	if r.Hit {
		t.Fatal("5th distinct line hit")
	}
	if r.EvictedAddr != base+1*stride {
		t.Fatalf("evicted %#x, want %#x", r.EvictedAddr, base+stride)
	}
	if !c.Access(base, false).Hit {
		t.Fatal("recently used line was evicted")
	}
	if c.Access(base+1*stride, false).Hit {
		t.Fatal("LRU line survived eviction")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := New(cfg4KB())
	stride := uint64(1024)
	c.Access(0, true) // dirty
	for i := uint64(1); i < 4; i++ {
		c.Access(i*stride, false)
	}
	r := c.Access(4*stride, false) // evicts line 0 (dirty)
	if !r.Writeback {
		t.Fatal("dirty eviction did not signal writeback")
	}
	if r.EvictedAddr != 0 {
		t.Fatalf("evicted %#x, want 0", r.EvictedAddr)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
	// clean eviction must not signal writeback
	c = New(cfg4KB())
	for i := uint64(0); i < 5; i++ {
		c.Access(i*stride, false)
	}
	if c.Stats().Writebacks != 0 {
		t.Fatal("clean eviction produced writeback")
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := New(cfg4KB())
	stride := uint64(1024)
	c.Access(0, false) // clean fill
	c.Access(0, true)  // write hit → dirty
	for i := uint64(1); i < 5; i++ {
		c.Access(i*stride, false)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty hit rate not 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Fatalf("hit rate %v", s.HitRate())
	}
}

func TestSmallWorkingSetAlwaysHitsAfterWarmup(t *testing.T) {
	// Property: any working set that fits in the cache has zero misses
	// after the first pass, for arbitrary access order.
	check := func(seed uint64) bool {
		c := New(cfg4KB())
		r := prng.New(seed)
		// 4KB cache, 64B lines → 64 resident lines; use 32 and keep them
		// in at most 2 lines per set (16 sets × 4 ways holds them all).
		lines := make([]uint64, 32)
		for i := range lines {
			lines[i] = uint64(i) * 64
		}
		for _, a := range lines {
			c.Access(a, false)
		}
		missesAfterWarmup := c.Stats().Misses
		for i := 0; i < 500; i++ {
			c.Access(lines[r.Intn(len(lines))], r.Intn(2) == 0)
		}
		return c.Stats().Misses == missesAfterWarmup
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEvictedAddrRoundTrips(t *testing.T) {
	// Property: the reported EvictedAddr, when re-accessed, maps to the
	// same set it was evicted from (address reconstruction is exact).
	check := func(seed uint64) bool {
		c := New(Config{SizeBytes: 2048, LineBytes: 64, Ways: 2})
		r := prng.New(seed)
		inserted := map[uint64]bool{}
		for i := 0; i < 200; i++ {
			addr := uint64(r.Intn(1 << 20))
			line := addr &^ 63
			inserted[line] = true
			res := c.Access(addr, false)
			if res.EvictedAddr != 0 || res.Writeback {
				if !res.Hit && res.EvictedAddr != 0 && !inserted[res.EvictedAddr] {
					return false // evicted an address we never inserted
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLargerCacheNeverWorse(t *testing.T) {
	// The Figure-1b premise: growing the counter cache monotonically
	// improves hit rate on a reuse-heavy trace.
	trace := make([]uint64, 0, 20000)
	r := prng.New(77)
	for i := 0; i < 20000; i++ {
		// mix of a hot region and a cold stream
		if r.Intn(4) != 0 {
			trace = append(trace, uint64(r.Intn(256))*64)
		} else {
			trace = append(trace, uint64(100000+i)*64)
		}
	}
	prev := -1.0
	for _, size := range []int{1024, 4096, 16384, 65536} {
		c := New(Config{SizeBytes: size, LineBytes: 64, Ways: 4})
		for _, a := range trace {
			c.Access(a, false)
		}
		hr := c.Stats().HitRate()
		if hr < prev-0.01 {
			t.Fatalf("hit rate decreased when growing cache: %v -> %v at %d", prev, hr, size)
		}
		prev = hr
	}
}
