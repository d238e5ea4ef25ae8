package tensor

import (
	"math"
	"sync"
	"testing"
)

// withWorkers runs f with the kernel worker override pinned to n, restoring
// the previous override afterwards.
func withWorkers(n int, f func()) {
	prev := SetKernelWorkers(n)
	defer SetKernelWorkers(prev)
	f()
}

// bitEqual reports whether two float32 buffers are identical bit patterns
// (NaNs compare by payload, ±0 are distinguished).
func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestKernelWorkersSerialPath is the PELTA_KERNEL_WORKERS=1 regression: with
// the override pinned to 1, parallelFor must degrade to exactly one inline
// body call covering the whole range — the single-threaded path, not a
// 1-worker sharding of it.
func TestKernelWorkersSerialPath(t *testing.T) {
	withWorkers(1, func() {
		if KernelWorkers() != 1 {
			t.Fatalf("KernelWorkers() = %d, want 1", KernelWorkers())
		}
		var calls [][3]int
		parallelFor(1024, chunks(1024, 1<<22), func(chunk, lo, hi int) {
			calls = append(calls, [3]int{chunk, lo, hi})
		})
		if len(calls) != 1 || calls[0] != [3]int{0, 0, 1024} {
			t.Fatalf("worker override 1 sharded the range: calls = %v", calls)
		}
	})
	if prev := SetKernelWorkers(6); prev != 0 {
		t.Fatalf("override not restored: %d", prev)
	}
	if KernelWorkers() != 6 {
		t.Fatalf("KernelWorkers() = %d, want pinned 6", KernelWorkers())
	}
	SetKernelWorkers(0)
}

// TestParallelForCoversRange checks the sharded path partitions [0,n)
// exactly once per index, and visits every chunk index in
// [0, chunks(n, work)) exactly once, for worker counts that exceed the chunk
// count and for n smaller than the would-be chunk count.
func TestParallelForCoversRange(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{4, 1024}, {16, 5}, {3, 7}, {8, 999}} {
		withWorkers(tc.workers, func() {
			var mu sync.Mutex
			nc := chunks(tc.n, 1<<22)
			seen, chunkSeen := make([]int, tc.n), make([]int, nc)
			parallelFor(tc.n, nc, func(chunk, lo, hi int) {
				mu.Lock()
				chunkSeen[chunk]++
				for i := lo; i < hi; i++ {
					seen[i]++
				}
				mu.Unlock()
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", tc.workers, tc.n, i, c)
				}
			}
			for i, c := range chunkSeen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: chunk %d of %d visited %d times", tc.workers, tc.n, i, nc, c)
				}
			}
		})
	}
}

// TestMatMulBitIdentityAcrossWorkers pins the tiled matmul (and the transA /
// transB variants) to exact bit equality between the single-threaded path
// and a sharded run. Odd dimensions exercise every tail path of the
// blocked kernels.
func TestMatMulBitIdentityAcrossWorkers(t *testing.T) {
	rng := NewRNG(101)
	// k and n straddle the matmulKC/matmulNC tile sizes so the packed-panel
	// path engages; m*k*n clears parallelThreshold.
	a := rng.Uniform(-1, 1, 67, 193)
	b := rng.Uniform(-1, 1, 193, 301)
	at := rng.Uniform(-1, 1, 193, 67)  // [k,m] for transA
	bt := rng.Uniform(-1, 1, 301, 193) // [n,k] for transB
	var serialMM, serialTB, serialTA *Tensor
	withWorkers(1, func() {
		serialMM = MatMul(a, b)
		serialTB = MatMulTransB(a, bt)
		serialTA = MatMulTransA(at, b)
	})
	for _, w := range []int{2, 5, 8} {
		withWorkers(w, func() {
			if got := MatMul(a, b); !bitEqual(got.Data(), serialMM.Data()) {
				t.Fatalf("workers=%d: MatMul bits diverge from single-threaded", w)
			}
			if got := MatMulTransB(a, bt); !bitEqual(got.Data(), serialTB.Data()) {
				t.Fatalf("workers=%d: MatMulTransB bits diverge", w)
			}
			if got := MatMulTransA(at, b); !bitEqual(got.Data(), serialTA.Data()) {
				t.Fatalf("workers=%d: MatMulTransA bits diverge", w)
			}
		})
	}
}

// TestConvBitIdentityAcrossWorkers pins parallel convolution forward and
// backward (gx, gw and gb) to the single-threaded bits.
func TestConvBitIdentityAcrossWorkers(t *testing.T) {
	rng := NewRNG(202)
	x := rng.Uniform(-1, 1, 5, 3, 13, 13)
	w := rng.Uniform(-1, 1, 7, 3, 3, 3)
	bias := rng.Uniform(-1, 1, 7)
	oh, ow := ConvOut(13, 3, 2, 1), ConvOut(13, 3, 2, 1)
	gy := rng.Uniform(-1, 1, 5, 7, oh, ow)

	run := func() (y, gx, gw, gb *Tensor) {
		p := NewPool()
		y = New(5, 7, oh, ow)
		Conv2dInto(p, y, x, w, bias, 2, 1)
		gx, gw, gb = New(x.Shape()...), New(w.Shape()...), New(7)
		Conv2dBackwardInto(p, gx, gw, gb, x, w, gy, 2, 1)
		return
	}
	var sy, sgx, sgw, sgb *Tensor
	withWorkers(1, func() { sy, sgx, sgw, sgb = run() })
	for _, workers := range []int{2, 8} {
		withWorkers(workers, func() {
			y, gx, gw, gb := run()
			if !bitEqual(y.Data(), sy.Data()) {
				t.Fatalf("workers=%d: conv forward bits diverge", workers)
			}
			if !bitEqual(gx.Data(), sgx.Data()) {
				t.Fatalf("workers=%d: conv gx bits diverge", workers)
			}
			if !bitEqual(gw.Data(), sgw.Data()) {
				t.Fatalf("workers=%d: conv gw bits diverge", workers)
			}
			if !bitEqual(gb.Data(), sgb.Data()) {
				t.Fatalf("workers=%d: conv gb bits diverge", workers)
			}
		})
	}
}

// TestConvTransposeBitIdentityAcrossWorkers pins the pooled transposed
// convolution to the single-threaded bits.
func TestConvTransposeBitIdentityAcrossWorkers(t *testing.T) {
	rng := NewRNG(303)
	x := rng.Uniform(-1, 1, 4, 6, 9, 9)
	w := rng.Uniform(-1, 1, 6, 3, 4, 4)
	var serial *Tensor
	withWorkers(1, func() { serial = ConvTranspose2d(x, w, 3, 0) })
	withWorkers(8, func() {
		p := NewPool()
		got := New(serial.Shape()...)
		ConvTranspose2dInto(p, got, x, w, 3, 0)
		if !bitEqual(got.Data(), serial.Data()) {
			t.Fatal("workers=8: ConvTranspose2dInto bits diverge from single-threaded")
		}
	})
}

// TestFusedAttentionBitIdentityAcrossWorkers pins the fused attention
// forward and backward to the single-threaded bits. T=65 (ViT token count)
// exercises the odd tail strip.
func TestFusedAttentionBitIdentityAcrossWorkers(t *testing.T) {
	rng := NewRNG(404)
	const G, T, dh = 12, 65, 16
	q := rng.Uniform(-1, 1, G, T, dh)
	k := rng.Uniform(-1, 1, G, T, dh)
	v := rng.Uniform(-1, 1, G, T, dh)
	gy := rng.Uniform(-1, 1, G, T, dh)
	scale := float32(1 / math.Sqrt(float64(dh)))

	run := func() (y, gq, gk, gv *Tensor) {
		p := NewPool()
		y = New(G, T, dh)
		FusedAttentionInto(p, y, q, k, v, scale)
		gq, gk, gv = New(G, T, dh), New(G, T, dh), New(G, T, dh)
		FusedAttentionBackwardInto(p, gq, gk, gv, q, k, v, gy, scale)
		return
	}
	var sy, sgq, sgk, sgv *Tensor
	withWorkers(1, func() { sy, sgq, sgk, sgv = run() })
	for _, workers := range []int{3, 8} {
		withWorkers(workers, func() {
			y, gq, gk, gv := run()
			if !bitEqual(y.Data(), sy.Data()) {
				t.Fatalf("workers=%d: fused attention forward bits diverge", workers)
			}
			if !bitEqual(gq.Data(), sgq.Data()) {
				t.Fatalf("workers=%d: fused attention gq bits diverge", workers)
			}
			if !bitEqual(gk.Data(), sgk.Data()) {
				t.Fatalf("workers=%d: fused attention gk bits diverge", workers)
			}
			if !bitEqual(gv.Data(), sgv.Data()) {
				t.Fatalf("workers=%d: fused attention gv bits diverge", workers)
			}
		})
	}
}

// TestFusedAttentionMatchesMaterializingChain pins the fused kernel to the
// unfused BMM → Scale → SoftmaxRows → BMM composition bit-for-bit — the
// property that lets nn.MultiHeadSelfAttention switch paths freely.
func TestFusedAttentionMatchesMaterializingChain(t *testing.T) {
	rng := NewRNG(505)
	const G, T, dh = 6, 33, 8
	q := rng.Uniform(-1, 1, G, T, dh)
	k := rng.Uniform(-1, 1, G, T, dh)
	v := rng.Uniform(-1, 1, G, T, dh)
	scale := float32(1 / math.Sqrt(float64(dh)))

	fused := New(G, T, dh)
	FusedAttentionInto(nil, fused, q, k, v, scale)

	// Materializing reference: kᵀ per slice, scores, scale, softmax, @v.
	kT := New(G, dh, T)
	for g := 0; g < G; g++ {
		transposeScatterBias(kT.Data()[g*T*dh:(g+1)*T*dh], k.Data()[g*T*dh:(g+1)*T*dh], nil, dh, T)
	}
	scores := New(G, T, T)
	BMMInto(scores, q, kT)
	ScaleInto(scores, scores, scale)
	SoftmaxRowsRaw(scores.Data(), scores.Data(), G*T, T)
	ref := New(G, T, dh)
	BMMInto(ref, scores, v)

	if !bitEqual(fused.Data(), ref.Data()) {
		t.Fatal("fused attention bits diverge from the materializing chain")
	}
}

// TestWorkerPoolConcurrentCallers hammers the shared pool from many
// concurrent ParallelOracle-style callers, each running nested parallel
// kernels, and checks every caller still gets bit-exact results. Run under
// -race this doubles as the data-race probe for the caller-runs scheduler.
func TestWorkerPoolConcurrentCallers(t *testing.T) {
	rng := NewRNG(606)
	a := rng.Uniform(-1, 1, 96, 160)
	b := rng.Uniform(-1, 1, 160, 224)
	x := rng.Uniform(-1, 1, 4, 3, 11, 11)
	w := rng.Uniform(-1, 1, 5, 3, 3, 3)
	var wantMM, wantConv *Tensor
	withWorkers(1, func() {
		wantMM = MatMul(a, b)
		wantConv = Conv2d(x, w, nil, 1, 1)
	})

	withWorkers(8, func() {
		const callers = 8
		errs := make(chan string, callers)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := NewPool()
				dst := New(96, 224)
				conv := New(wantConv.Shape()...)
				for it := 0; it < 20; it++ {
					MatMulInto(dst, a, b)
					if !bitEqual(dst.Data(), wantMM.Data()) {
						errs <- "matmul bits diverged under concurrency"
						return
					}
					Conv2dInto(p, conv, x, w, nil, 1, 1)
					if !bitEqual(conv.Data(), wantConv.Data()) {
						errs <- "conv bits diverged under concurrency"
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	})
}
