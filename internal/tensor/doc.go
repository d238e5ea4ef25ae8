// Package tensor provides dense float32 n-dimensional tensors and the
// numerical kernels (elementwise ops, matrix multiplication, convolution,
// fused attention, pooling) used by the autograd engine, the model zoo and
// the attack suite.
//
// Tensors are row-major and contiguous. The package is deliberately free of
// any autodiff logic: it only moves numbers around.
//
// # Kernel contract
//
// Each kernel has exactly one core: an Into form that writes a
// caller-provided destination (MatMulInto, Conv2dInto, SoftmaxRowsInto, …)
// or a Raw form over bare row-major buffers (MatMulRaw, SoftmaxRowsRaw, …).
// The heap form (Add, MatMul, Conv2d, …), which returns a fresh tensor, and
// the In form (AddIn, ScaleIn, ClampIn, …), which mutates its first operand,
// are one-line wrappers over that core, so every variant runs the same loop
// and produces the same bits.
//
// Kernels that need scratch (Conv2dInto, Conv2dBackwardInto,
// ConvTranspose2dInto, FusedAttentionInto, FusedAttentionBackwardInto)
// borrow it once per call, before dispatch: one [chunks, size] slab per
// scratch kind, sized by chunks(), of which each chunk uses its own row.
// Shards never touch the Pool, so the pool's traffic — and the pooled
// engine's zero-miss steady state — is the same under every schedule. The
// chunk count is a pure function of (n, work, KernelWorkers()), sampled
// once per call for both the slab size and the dispatch.
//
// # Parallelism
//
// The hot kernels (tiled matmul, batched convolution forward/backward,
// transposed convolution, fused attention) shard their outermost loop over a
// shared worker pool of persistent goroutines sized to GOMAXPROCS. Work
// below parallelThreshold (~64k multiply-adds) runs inline — the model-zoo
// shapes used in -short tests sit below it on purpose. The pool uses
// caller-runs scheduling: helpers are offered to the pool non-blocking and
// the calling goroutine always executes chunks itself, so kernels invoked
// from inside another parallel region (or from the attack-layer
// ParallelOracle workers) degrade to inline execution instead of
// oversubscribing or deadlocking.
//
// PELTA_KERNEL_WORKERS overrides the worker count at process start
// (0 = GOMAXPROCS); SetKernelWorkers does the same at runtime. Setting 1
// bypasses sharding entirely and runs the historical single-threaded loop.
//
// # Determinism
//
// Every kernel is bit-deterministic at any worker count: parallel shards
// own disjoint output ranges and each output element is reduced in a fixed
// serial order, so workers=1 and workers=N produce identical float32 bits
// (pinned by the property tests in parallel_test.go). Cache-blocked tiling
// preserves the same guarantee by keeping per-element summation order
// unchanged (k-blocks start on even indices to match the pairwise saxpy
// kernel). Gradient reductions that cross shard boundaries (conv gw/gb)
// accumulate per-sample partials in scratch and reduce serially in sample
// order.
//
// The size-bucketed Pool is safe for concurrent use. The shards of one
// kernel call share the caller's pool, but only the calling goroutine
// borrows from it; concurrent callers (e.g. ParallelOracle workers) each
// bring their own pool, so the mutex stays uncontended. RNG wraps
// math/rand with an explicit seed — every random draw in the repo flows
// through it, which is what makes experiments replayable.
package tensor
