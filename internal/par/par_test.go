package par

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
)

func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 64} {
			hits := make([]atomic.Int32, n)
			if err := For(n, workers, func(i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, h)
				}
			}
		}
	}
	if h := helpers.Load(); h != 0 {
		t.Fatalf("%d helpers still held after For returned", h)
	}
}

// Index 60 fails at once while index 30 yields first, so the later index
// usually fails first; For must still report index 30, and every index
// below it must have run, as in a serial loop.
func TestForReturnsLowestFailingIndex(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const n = 100
	for run := 0; run < 200; run++ {
		hits := make([]atomic.Int32, n)
		err := For(n, 0, func(i int) error {
			hits[i].Add(1)
			switch i {
			case 30:
				runtime.Gosched()
				return fmt.Errorf("fail %d", i)
			case 31, 60, 99:
				return fmt.Errorf("fail %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail 30" {
			t.Fatalf("run %d: err = %v, want fail 30", run, err)
		}
		for i := 0; i < 30; i++ {
			if hits[i].Load() != 1 {
				t.Fatalf("run %d: index %d below the failure ran %d times", run, i, hits[i].Load())
			}
		}
	}
}

func TestForSerialRunsInOrderOnCaller(t *testing.T) {
	caller := goid()
	var order []int
	boom := errors.New("boom")
	err := For(10, 1, func(i int) error {
		if g := goid(); g != caller {
			return fmt.Errorf("index %d ran on goroutine %d, caller is %d", i, g, caller)
		}
		order = append(order, i)
		if i == 6 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4 5 6]" {
		t.Fatalf("order = %v, want 0..6 then stop", order)
	}
}

// A For inside a For draws on the same budget, so the whole nest never
// has more than GOMAXPROCS iterations running, and every helper is
// returned afterwards.
func TestForNestedStaysWithinBudget(t *testing.T) {
	const procs = 4
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	var running, peak atomic.Int32
	err := For(3, 0, func(int) error {
		return For(50, 0, func(int) error {
			r := running.Add(1)
			for {
				p := peak.Load()
				if r <= p || peak.CompareAndSwap(p, r) {
					break
				}
			}
			runtime.Gosched()
			running.Add(-1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > procs {
		t.Fatalf("peak %d concurrent iterations, budget is GOMAXPROCS=%d", p, procs)
	}
	if h := helpers.Load(); h != 0 {
		t.Fatalf("%d helpers still held after For returned", h)
	}
}

// goid parses the current goroutine's id from its stack header.
func goid() int {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.Atoi(string(b[:bytes.IndexByte(b, ' ')]))
	return id
}
