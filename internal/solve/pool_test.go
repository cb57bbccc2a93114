package solve

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// count runs jobs 0..n−1 on Run and returns how often each ran.
func count(n, workers int) []int64 {
	jobs := make([]int, n)
	for i := range jobs {
		jobs[i] = i
	}
	ran := make([]atomic.Int64, n)
	Run(jobs, workers, func(int, *Queue[int]) func(int) {
		return func(j int) { ran[j].Add(1) }
	})
	out := make([]int64, n)
	for i := range ran {
		out[i] = ran[i].Load()
	}
	return out
}

func TestRunEachJobOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 0} {
		for _, n := range []int{0, 1, 3, 100} { // 1 and 3 jobs: fewer than workers
			for j, c := range count(n, workers) {
				if c != 1 {
					t.Fatalf("workers=%d jobs=%d: job %d ran %d times", workers, n, j, c)
				}
			}
		}
	}
}

func TestWorkers(t *testing.T) {
	if got, want := Workers(0), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS = %d", got, want)
	}
	if got, want := Workers(-3), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers(-3) = %d, want %d", got, want)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

// TestRunNewWorkerOncePerWorker: each worker builds its state once, under
// a distinct number in [0, Workers(n)), even with fewer jobs than workers.
func TestRunNewWorkerOncePerWorker(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 0} {
		var mu sync.Mutex
		var ws []int
		Run([]int{1, 2}, workers, func(w int, _ *Queue[int]) func(int) {
			mu.Lock()
			ws = append(ws, w)
			mu.Unlock()
			return func(int) {}
		})
		slices.Sort(ws)
		want := make([]int, Workers(workers))
		for i := range want {
			want[i] = i
		}
		if !slices.Equal(ws, want) {
			t.Errorf("workers=%d: newWorker called with %v, want %v", workers, ws, want)
		}
	}
}

// TestRunOneWorkerIsTheCaller: one worker runs the jobs in order on the
// calling goroutine, starting none.
func TestRunOneWorkerIsTheCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	var order []int
	Run([]int{3, 1, 2}, 1, func(int, *Queue[int]) func(int) {
		return func(j int) {
			// Goroutines of earlier tests may still be exiting, so the
			// count can only have dropped.
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines during a one-worker run, %d before", n, before)
			}
			order = append(order, j)
		}
	})
	if !slices.Equal(order, []int{3, 1, 2}) {
		t.Errorf("one worker ran %v, want the queue order [3 1 2]", order)
	}
}

// TestRunPushedJobsRun is exact's donation contract: jobs that running
// jobs push also run, and Run returns only after them.
func TestRunPushedJobsRun(t *testing.T) {
	const depth = 10 // job d pushes two jobs d−1: 2^(depth+1) − 1 in all
	for _, workers := range []int{1, 2, 7} {
		var ran atomic.Int64
		Run([]int{depth}, workers, func(_ int, q *Queue[int]) func(int) {
			return func(d int) {
				if d > 0 {
					q.Push(d - 1)
					q.Push(d - 1)
				}
				ran.Add(1)
			}
		})
		if got, want := ran.Load(), int64(1<<(depth+1)-1); got != want {
			t.Errorf("workers=%d: %d jobs ran by the time Run returned, want %d", workers, got, want)
		}
	}
}

// TestRunHungryFeedsWaitingWorker: with two workers and one job, the idle
// worker waits, Hungry says so, and the job it is handed runs on it.
func TestRunHungryFeedsWaitingWorker(t *testing.T) {
	var donor, taker atomic.Int64
	donor.Store(-1)
	taker.Store(-1)
	Run([]int{0}, 2, func(w int, q *Queue[int]) func(int) {
		return func(j int) {
			if j == 1 {
				taker.Store(int64(w))
				return
			}
			donor.Store(int64(w))
			for deadline := time.Now().Add(10 * time.Second); !q.Hungry(); {
				if time.Now().After(deadline) {
					t.Error("Hungry never reported the idle worker")
					return
				}
				runtime.Gosched()
			}
			q.Push(1)
			if q.Hungry() {
				t.Error("Hungry after a push fed the one idle worker")
			}
			// Stay busy until the pushed job has run elsewhere.
			for deadline := time.Now().Add(10 * time.Second); taker.Load() < 0; {
				if time.Now().After(deadline) {
					t.Error("the pushed job did not run on the idle worker")
					return
				}
				runtime.Gosched()
			}
		}
	})
	if d, tk := donor.Load(), taker.Load(); d < 0 || tk < 0 || d == tk {
		t.Errorf("donor worker %d, taker worker %d: want two distinct workers", d, tk)
	}
}

// TestRunPanicDrainsThenRepanics: a panicking job ends, its worker stops,
// the other workers run every other job, and Run re-raises the panic on
// the caller once they are done.
func TestRunPanicDrainsThenRepanics(t *testing.T) {
	const n, bad = 200, 17
	for _, workers := range []int{2, 3, 7} {
		jobs := make([]int, n)
		for i := range jobs {
			jobs[i] = i
		}
		ran := make([]atomic.Int64, n)
		got := func() (r any) {
			defer func() { r = recover() }()
			Run(jobs, workers, func(int, *Queue[int]) func(int) {
				return func(j int) {
					ran[j].Add(1)
					if j == bad {
						panic("job 17")
					}
				}
			})
			return nil
		}()
		if got != "job 17" {
			t.Fatalf("workers=%d: Run raised %v, want the job's panic", workers, got)
		}
		for j := range ran {
			if c := ran[j].Load(); c != 1 {
				t.Errorf("workers=%d: job %d ran %d times after a panic", workers, j, c)
			}
		}
	}
}

// TestRunPanicOneWorker: the only worker stops at the panic, and Run
// re-raises it instead of hanging.
func TestRunPanicOneWorker(t *testing.T) {
	var ran []int
	got := func() (r any) {
		defer func() { r = recover() }()
		Run([]int{0, 1, 2}, 1, func(int, *Queue[int]) func(int) {
			return func(j int) {
				ran = append(ran, j)
				if j == 1 {
					panic(j)
				}
			}
		})
		return nil
	}()
	if got != 1 || !slices.Equal(ran, []int{0, 1}) {
		t.Fatalf("raised %v after jobs %v, want 1 after [0 1]", got, ran)
	}
}

// TestRunNewWorkerPanic: a worker that fails to build its state takes no
// job; the others run them all, and Run re-raises.
func TestRunNewWorkerPanic(t *testing.T) {
	var ran atomic.Int64
	got := func() (r any) {
		defer func() { r = recover() }()
		Run([]int{0, 1, 2, 3}, 3, func(w int, _ *Queue[int]) func(int) {
			if w == 1 {
				panic("no state")
			}
			return func(int) { ran.Add(1) }
		})
		return nil
	}()
	if got != "no state" || ran.Load() != 4 {
		t.Fatalf("raised %v with %d jobs run, want \"no state\" with 4", got, ran.Load())
	}
}
