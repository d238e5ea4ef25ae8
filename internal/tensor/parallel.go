package tensor

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// This file is the parallel backbone of the kernel layer: one shared,
// bounded pool of persistent worker goroutines that every data-parallel
// kernel (tiled matmul, batched convolution, fused attention) dispatches
// through, instead of spawning ad-hoc goroutines per call.
//
// Scheduling is caller-runs: parallelFor shards [0,n) into chunks behind an
// atomic cursor, offers the pool a bounded number of helper tasks without
// blocking, and then executes chunks itself until none remain. Two
// properties follow:
//
//   - Nesting guard. A kernel running inside another parallel region (a
//     matmul inside a batch-parallel convolution, or inside an
//     attack.ParallelOracle worker) cannot oversubscribe the machine: the
//     helper budget is the fixed pool size no matter how many concurrent
//     callers exist, and when all workers are busy the nested call simply
//     degrades to inline execution on its own goroutine. Workers never
//     block on anything but strictly-nested work, so no cycle of waits —
//     and hence no deadlock — can form.
//
//   - Bit determinism. Every chunk is executed by exactly one goroutine
//     with the same intra-chunk iteration order as the serial path, and
//     chunk boundaries depend only on (n, work, worker count), never on
//     scheduling. Kernels built on parallelFor therefore produce results
//     bit-identical to their single-threaded runs as long as chunk writes
//     are disjoint and cross-chunk reductions are performed serially in a
//     fixed order (see Conv2dBackwardInto).
//
// The single-threaded path is taken whenever the sharded work is below
// parallelThreshold, the effective worker count is 1 (GOMAXPROCS(0)==1 or
// PELTA_KERNEL_WORKERS=1), or there is nothing to shard.

// kernelWorkerOverride pins the kernel worker count when positive; 0 means
// auto (runtime.GOMAXPROCS). Set from PELTA_KERNEL_WORKERS at init and from
// SetKernelWorkers at runtime.
var kernelWorkerOverride atomic.Int64

func init() {
	if v, ok := os.LookupEnv("PELTA_KERNEL_WORKERS"); ok {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			kernelWorkerOverride.Store(int64(n))
		}
	}
}

// KernelWorkers returns the effective kernel parallelism: the
// PELTA_KERNEL_WORKERS / SetKernelWorkers override when pinned, otherwise
// runtime.GOMAXPROCS(0). A value of 1 forces every kernel onto the serial
// deterministic path.
func KernelWorkers() int {
	if n := int(kernelWorkerOverride.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetKernelWorkers pins the kernel worker count (0 restores auto) and
// returns the previous override. It is the programmatic twin of the
// PELTA_KERNEL_WORKERS environment variable, used by tests and by hosts
// that must pin determinism-sensitive cells.
func SetKernelWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(kernelWorkerOverride.Swap(int64(n)))
}

// workerPool is the shared set of persistent helper goroutines. Workers
// block on the task channel when idle and cost nothing; the pool is started
// lazily on the first parallel dispatch.
type workerPool struct {
	tasks chan func()
	size  int
}

var (
	poolOnce   sync.Once
	sharedPool *workerPool
)

// minPoolWorkers floors the pool size so test hosts with few cores can
// still exercise (and race-detect) the parallel paths by raising
// GOMAXPROCS above the physical core count.
const minPoolWorkers = 8

func kernelPool() *workerPool {
	poolOnce.Do(func() {
		size := runtime.GOMAXPROCS(0)
		if size < minPoolWorkers {
			size = minPoolWorkers
		}
		p := &workerPool{tasks: make(chan func(), size), size: size}
		for i := 0; i < size; i++ {
			go func() {
				for f := range p.tasks {
					f()
				}
			}()
		}
		sharedPool = p
	})
	return sharedPool
}

// parallelThreshold is the amount of work (multiply-add count) below which
// kernels run serially; sharding tiny operations costs more than it saves.
const parallelThreshold = 1 << 16

// chunks returns how many chunks a kernel sharding n independent units of
// `work` total multiply-adds is split into: 1 (the serial inline path)
// below parallelThreshold, for n < 2, or with one kernel worker, and
// otherwise twice the worker count capped at n — the atomic cursor then
// load-balances uneven chunk costs without affecting per-chunk determinism.
// It is a pure function of (n, work, KernelWorkers()), so a kernel sizes its
// per-chunk scratch from the same count parallelFor dispatches.
func chunks(n, work int) int {
	w := KernelWorkers()
	if w <= 1 || n < 2 || work < parallelThreshold {
		return 1
	}
	return min(2*w, n)
}

// parallelFor shards [0,n) into nc chunks (from chunks) and runs
// body(chunk, lo, hi) once per chunk, on the shared worker pool when nc > 1
// and inline otherwise. body must write only state owned by [lo,hi) or by
// its chunk index; results are then bit-identical for every worker count.
func parallelFor(n, nc int, body func(chunk, lo, hi int)) {
	if nc <= 1 {
		body(0, 0, n)
		return
	}
	pool := kernelPool()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(nc)
	run := func() bool {
		i := int(next.Add(1)) - 1
		if i >= nc {
			return false
		}
		body(i, i*n/nc, (i+1)*n/nc)
		wg.Done()
		return true
	}
	helper := func() {
		for run() {
		}
	}
	// Offer helpers without blocking: a full channel means every worker is
	// busy (typically because this call is nested inside another parallel
	// region), and the caller simply runs its chunks inline.
	helpers := min(KernelWorkers()-1, nc-1, pool.size)
offer:
	for h := 0; h < helpers; h++ {
		select {
		case pool.tasks <- helper:
		default:
			break offer
		}
	}
	helper()
	wg.Wait()
}
