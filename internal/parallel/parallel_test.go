package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
)

func withWorkers(t *testing.T, n int) {
	t.Helper()
	prev := SetWorkers(n)
	t.Cleanup(func() { SetWorkers(prev) })
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		withWorkers(t, w)
		for _, n := range []int{0, 1, 7, 64, 1000} {
			for _, grain := range []int{0, 1, 3, 1000} {
				hits := make([]int32, n)
				For(n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("workers=%d n=%d grain=%d: bad chunk [%d,%d)", w, n, grain, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times", w, n, grain, i, h)
					}
				}
			}
		}
	}
}

func TestForSerialIsSingleChunk(t *testing.T) {
	withWorkers(t, 1)
	calls := 0
	For(100, 7, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("serial path chunked: [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("serial path made %d calls", calls)
	}
}

func TestForNested(t *testing.T) {
	withWorkers(t, 4)
	const outer, inner = 16, 64
	var total atomic.Int64
	For(outer, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(inner, 8, func(ilo, ihi int) {
				total.Add(int64(ihi - ilo))
			})
		}
	})
	if got := total.Load(); got != outer*inner {
		t.Fatalf("nested For covered %d indices, want %d", got, outer*inner)
	}
	if got := inflight.Load(); got != 0 {
		t.Fatalf("semaphore leaked: inflight=%d", got)
	}
}

// TestDoRunsAllTasks checks that DoErr runs every task exactly once, an
// earlier failure included, and at width 1 in argument order.
func TestDoRunsAllTasks(t *testing.T) {
	for _, w := range []int{1, 3} {
		withWorkers(t, w)
		var ran [5]int32
		var order []int
		var tasks []func() error
		for i := range ran {
			i := i
			tasks = append(tasks, func() error {
				atomic.AddInt32(&ran[i], 1)
				if w == 1 {
					order = append(order, i)
				}
				if i == 1 {
					return errors.New("one")
				}
				return nil
			})
		}
		if err := DoErr(tasks...); err == nil {
			t.Fatalf("workers=%d: DoErr lost task 1's error", w)
		}
		for i, r := range ran {
			if r != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", w, i, r)
			}
		}
		if w == 1 {
			for i, got := range order {
				if got != i {
					t.Fatalf("serial DoErr ran tasks in order %v", order)
				}
			}
		}
	}
}

func TestDoErrReturnsFirstByIndex(t *testing.T) {
	withWorkers(t, 4)
	e1, e3 := errors.New("one"), errors.New("three")
	err := DoErr(
		func() error { return nil },
		func() error { return e1 },
		func() error { return nil },
		func() error { return e3 },
	)
	if err != e1 {
		t.Fatalf("DoErr = %v, want first-by-index %v", err, e1)
	}
	if err := DoErr(func() error { return nil }); err != nil {
		t.Fatalf("DoErr success = %v", err)
	}
}

func TestSetWorkersFloorsAtOne(t *testing.T) {
	prev := SetWorkers(0)
	defer SetWorkers(prev)
	if Workers() != 1 {
		t.Fatalf("Workers() = %d after SetWorkers(0)", Workers())
	}
}
