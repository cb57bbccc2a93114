package solve

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: n ≤ 0 means GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Queue is the job queue of one Run. Workers take its jobs oldest first,
// and a running job may Push more (exact pushes a donated branch when
// Hungry reports a worker waiting with nothing queued). Only a running job
// can push, so the run is over once the queue is empty and no job runs.
type Queue[J any] struct {
	mu      sync.Mutex
	ready   sync.Cond
	jobs    []J
	head    int // jobs[head:] are queued
	waiting int // workers blocked in take
	running int // jobs being run
	// hungry mirrors waiting > queued: busy workers may read it often, so
	// it is one atomic load off the lock.
	hungry atomic.Bool

	panicked any // the first panic a worker raised
}

// Hungry reports whether a worker waits for a job that is not queued.
func (q *Queue[J]) Hungry() bool { return q.hungry.Load() }

// Push queues a job. Only a running job may call it.
func (q *Queue[J]) Push(j J) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.jobs = append(q.jobs, j)
	q.setHungry()
	q.ready.Signal()
}

func (q *Queue[J]) setHungry() {
	q.hungry.Store(q.waiting > len(q.jobs)-q.head)
}

// take blocks until a job is queued, and returns it, or until the run is
// over, and returns false.
func (q *Queue[J]) take() (J, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.jobs) {
		if q.running == 0 {
			var none J
			return none, false
		}
		q.waiting++
		q.setHungry()
		q.ready.Wait()
		q.waiting--
	}
	j := q.jobs[q.head]
	q.head++
	if q.head == len(q.jobs) {
		q.jobs, q.head = nil, 0 // release the taken jobs
	}
	q.running++
	q.setHungry()
	return j, true
}

// done ends a job that take handed out; the last one to end wakes every
// waiting worker to return.
func (q *Queue[J]) done() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.running--
	if q.running == 0 && q.head == len(q.jobs) {
		q.ready.Broadcast()
	}
}

// work is one worker: it builds its state, then runs jobs until the run is
// over. A panicking job still ends (done runs, so no waiting worker
// hangs); the panic is recorded and this worker stops, leaving the queue
// to the others.
func (q *Queue[J]) work(w int, newWorker func(w int, q *Queue[J]) func(J)) {
	defer func() {
		if r := recover(); r != nil {
			q.mu.Lock()
			if q.panicked == nil {
				q.panicked = r
			}
			q.mu.Unlock()
		}
	}()
	run := newWorker(w, q)
	for j, ok := q.take(); ok; j, ok = q.take() {
		func() {
			defer q.done()
			run(j)
		}()
	}
}

// Run is the one worker pool every engine fans out through: exact's prefix
// jobs and donated branches, heuristic starts, routing trials,
// virtual-evaluation blocks and precompute points. It drains jobs, and
// every job they push, on Workers(workers) workers numbered from 0. The
// calling goroutine is worker 0, so a one-worker run starts no goroutine
// and runs the jobs in order. Each worker calls newWorker once, with its
// number and the queue, to build its private state, and gets back the
// function that runs one job on it. Run does not cap the workers at
// len(jobs), as running jobs may push more; a caller whose worker state is
// costly caps them itself. Run returns once every job has ended; if a job
// panicked, the other workers first drain the queue, and Run then
// re-raises the first panic on the caller.
func Run[J any](jobs []J, workers int, newWorker func(w int, q *Queue[J]) func(J)) {
	// Clipped, a push reallocates rather than write past the caller's list.
	q := &Queue[J]{jobs: slices.Clip(jobs)}
	q.ready.L = &q.mu
	var wg sync.WaitGroup
	for w := Workers(workers) - 1; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.work(w, newWorker)
		}()
	}
	q.work(0, newWorker)
	wg.Wait()
	if q.panicked != nil {
		panic(q.panicked)
	}
}
