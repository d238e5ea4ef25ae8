package tensor

import (
	"fmt"
	"sync"
)

// MatMul returns the matrix product a@b for 2-D tensors [m,k]x[k,n] -> [m,n].
// Large products are parallelized across rows.
func MatMul(a, b *Tensor) *Tensor {
	m, _, n := checkMatMul(a, b, false, false)
	out := New(m, n)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto stores a@b into dst [m,n]. dst must not alias the operands.
func MatMulInto(dst, a, b *Tensor) {
	m, k, n := checkMatMul(a, b, false, false)
	checkMatMulDst("MatMulInto", dst, m, n)
	MatMulRaw(dst.data, a.data, b.data, m, k, n)
}

// MatMulTransB returns a@bᵀ for a [m,k] and b [n,k] -> [m,n]. Used by
// backward passes to avoid materializing transposes.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, _, n := checkMatMul(a, b, false, true)
	out := New(m, n)
	MatMulTransBInto(out, a, b)
	return out
}

// MatMulTransBInto stores a@bᵀ into dst. dst must not alias the operands.
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k, n := checkMatMul(a, b, false, true)
	checkMatMulDst("MatMulTransBInto", dst, m, n)
	MatMulTransBRaw(dst.data, a.data, b.data, m, k, n)
}

// dotTileElems bounds (in float32 elements, ~32KB) the window of B rows the
// tiled dot kernel keeps hot while sweeping all A rows over it.
const dotTileElems = 1 << 13

// dotRows computes out[i,j] = Σ_p a[i,p]·b[j,p] for a [m,k] and b [n,k].
// When B is too large to stay cache-resident across the m-row sweep, the
// column range is tiled so each window of B rows is reused by every A row
// before moving on. Each output element is an independent register dot with
// sequential summation over p, so tiling cannot change any bit.
func dotRows(out, a, b []float32, m, k, n int) {
	if m == 1 || n*k <= 4*dotTileElems {
		dotRowsSeg(out, a, b, m, k, n, 0, n)
		return
	}
	jb := (dotTileElems / k) &^ 3
	if jb < 4 {
		jb = 4
	}
	for j0 := 0; j0 < n; j0 += jb {
		j1 := j0 + jb
		if j1 > n {
			j1 = n
		}
		dotRowsSeg(out, a, b, m, k, n, j0, j1)
	}
}

// dotRowsSeg computes the [j0,j1) column segment of every out row. Four
// output columns share each a-row load.
func dotRowsSeg(out, a, b []float32, m, k, n, j0, j1 int) {
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		or := out[i*n : (i+1)*n]
		j := j0
		for ; j+4 <= j1; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float32
			for p, av := range ar {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			or[j], or[j+1], or[j+2], or[j+3] = s0, s1, s2, s3
		}
		for ; j < j1; j++ {
			br := b[j*k : (j+1)*k]
			var s float32
			for p, av := range ar {
				s += av * br[p]
			}
			or[j] = s
		}
	}
}

// MatMulTransA returns aᵀ@b for a [k,m] and b [k,n] -> [m,n].
func MatMulTransA(a, b *Tensor) *Tensor {
	m, _, n := checkMatMul(a, b, true, false)
	out := New(m, n)
	MatMulTransAInto(out, a, b)
	return out
}

// MatMulTransAInto stores aᵀ@b into dst, overwriting it. dst must not alias
// the operands.
func MatMulTransAInto(dst, a, b *Tensor) {
	m, k, n := checkMatMul(a, b, true, false)
	checkMatMulDst("MatMulTransAInto", dst, m, n)
	dst.Zero()
	MatMulTransAAddRaw(dst.data, a.data, b.data, m, k, n)
}

// transAOuter accumulates k outer products into out; parallelized over
// output rows to keep writes disjoint. out must be pre-zeroed (or hold the
// accumulation base).
func transAOuter(out, a, b []float32, m, k, n int) {
	nc := chunks(m, m*k*n)
	if nc == 1 {
		transARows(out, a, b, 0, m, m, k, n)
		return
	}
	parallelFor(m, nc, func(_, r0, r1 int) {
		transARows(out, a, b, r0, r1, m, k, n)
	})
}

// transARows computes rows [r0,r1) of out += aᵀ@b: row i sweeps column i
// of a [k,m], i.e. a[i:] at stride m.
func transARows(out, a, b []float32, r0, r1, m, k, n int) {
	if k == 0 {
		return // a is empty: there is nothing to accumulate (or to slice)
	}
	for i := r0; i < r1; i++ {
		saxpyRows(out[i*n:(i+1)*n], a[i:], m, b, k, n)
	}
}

func checkMatMulDst(op string, dst *Tensor, m, n int) {
	if len(dst.data) != m*n {
		panic(fmt.Sprintf("tensor: %s destination %v incompatible with [%d,%d]", op, dst.shape, m, n))
	}
}

// checkBMM validates batched operands [G,m,k]x[G,k,n] -> dst [G,m,n] (with
// the b operand transposed per-slice when transB is set) and returns the
// dimensions.
func checkBMM(op string, dst, a, b *Tensor, transA, transB bool) (G, m, k, n int) {
	as, bs := a.shape, b.shape
	if len(as) != 3 || len(bs) != 3 || as[0] != bs[0] {
		panic(fmt.Sprintf("tensor: %s shapes %v x %v invalid", op, as, bs))
	}
	G = as[0]
	m, k = as[1], as[2]
	if transA {
		m, k = k, m
	}
	bk, bn := bs[1], bs[2]
	if transB {
		bk, bn = bn, bk
	}
	if bk != k {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v x %v", op, as, bs))
	}
	if len(dst.data) != G*m*bn {
		panic(fmt.Sprintf("tensor: %s destination %v incompatible", op, dst.shape))
	}
	return G, m, k, bn
}

// BMMInto stores the batched product a[G,m,k] @ b[G,k,n] into dst [G,m,n],
// overwriting it. Slices are independent, so large batches are sharded over
// the worker pool (per-slice kernels stay serial, keeping bits fixed); it
// walks raw offsets, so the hot attention loops allocate nothing.
func BMMInto(dst, a, b *Tensor) {
	G, m, k, n := checkBMM("BMMInto", dst, a, b, false, false)
	h, t0 := kernelStart()
	if G == 1 {
		matMulInto(dst.data, a.data, b.data, m, k, n)
	} else {
		parallelFor(G, chunks(G, G*m*k*n), func(_, g0, g1 int) {
			for i := g0; i < g1; i++ {
				matMulRowsBlocked(dst.data[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], b.data[i*k*n:(i+1)*k*n], 0, m, k, n)
			}
		})
	}
	kernelEnd(h, t0, KernelMatMul)
}

// BMMTransBInto stores a[G,m,k] @ bᵀ[G,n,k] into dst [G,m,n], sharding
// slices over the worker pool.
func BMMTransBInto(dst, a, b *Tensor) {
	G, m, k, n := checkBMM("BMMTransBInto", dst, a, b, false, true)
	h, t0 := kernelStart()
	if G == 1 {
		matMulTransBRaw(dst.data, a.data, b.data, m, k, n)
	} else {
		parallelFor(G, chunks(G, G*m*k*n), func(_, g0, g1 int) {
			for i := g0; i < g1; i++ {
				dotRows(dst.data[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], b.data[i*n*k:(i+1)*n*k], m, k, n)
			}
		})
	}
	kernelEnd(h, t0, KernelMatMul)
}

// BMMTransAAddInto accumulates aᵀ[G,k,m] @ gy[G,k,n] into dst [G,m,n]
// (dst += per slice; dst must hold the accumulation base, typically zeros),
// sharding slices over the worker pool.
func BMMTransAAddInto(dst, a, b *Tensor) {
	G, m, k, n := checkBMM("BMMTransAAddInto", dst, a, b, true, false)
	h, t0 := kernelStart()
	if G == 1 {
		transAOuter(dst.data, a.data, b.data, m, k, n)
	} else {
		parallelFor(G, chunks(G, G*m*k*n), func(_, g0, g1 int) {
			for i := g0; i < g1; i++ {
				transARows(dst.data[i*m*n:(i+1)*m*n], a.data[i*k*m:(i+1)*k*m], b.data[i*k*n:(i+1)*k*n], 0, m, m, k, n)
			}
		})
	}
	kernelEnd(h, t0, KernelMatMul)
}

func checkMatMul(a, b *Tensor, transA, transB bool) (m, k, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires 2-D operands, got %v and %v", a.shape, b.shape))
	}
	am, ak := a.shape[0], a.shape[1]
	if transA {
		am, ak = ak, am
	}
	bk, bn := b.shape[0], b.shape[1]
	if transB {
		bk, bn = bn, bk
	}
	if ak != bk {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v (transA=%v transB=%v)", a.shape, b.shape, transA, transB))
	}
	return am, ak, bn
}

// matMulInto computes out = a@b with a [m,k], b [k,n] row-major. Rows are
// sharded over the worker pool when the product is large enough; each shard
// runs the cache-blocked row kernel.
func matMulInto(out, a, b []float32, m, k, n int) {
	nc := chunks(m, m*k*n)
	if nc == 1 {
		matMulRowsBlocked(out, a, b, 0, m, k, n)
		return
	}
	parallelFor(m, nc, func(_, r0, r1 int) {
		matMulRowsBlocked(out, a, b, r0, r1, k, n)
	})
}

// Cache-blocking parameters for the packed-panel matmul path. matmulKC must
// stay EVEN: blocks then start on even k indices, so the saxpy2 pairing of
// (p, p+1) rows inside each block coincides with the unblocked kernel's
// pairing and blocked results stay bit-identical.
const (
	matmulKC = 128
	matmulNC = 256
)

// panelBuf recycles packed B-panels across matmul calls and across workers.
var panelBuf = sync.Pool{New: func() any {
	s := make([]float32, matmulKC*matmulNC)
	return &s
}}

// matMulRowsBlocked computes rows [r0,r1) of out = a@b. When B spills out of
// a single [matmulKC, matmulNC] tile, it is packed panel by panel into a
// contiguous scratch buffer that every row of the shard then reuses, keeping
// the inner saxpy sweeps inside L1/L2 regardless of n's stride. Per output
// element the summation still runs over p in ascending order with the same
// saxpy2 pairing as matMulRows, so blocked, unblocked, serial and parallel
// paths all produce identical bits.
func matMulRowsBlocked(out, a, b []float32, r0, r1, k, n int) {
	if k <= matmulKC && n <= matmulNC {
		matMulRows(out, a, b, r0, r1, k, n)
		return
	}
	bufp := panelBuf.Get().(*[]float32)
	pack := *bufp
	for j0 := 0; j0 < n; j0 += matmulNC {
		nc := n - j0
		if nc > matmulNC {
			nc = matmulNC
		}
		for p0 := 0; p0 < k; p0 += matmulKC {
			kc := k - p0
			if kc > matmulKC {
				kc = matmulKC
			}
			for t := 0; t < kc; t++ {
				copy(pack[t*nc:(t+1)*nc], b[(p0+t)*n+j0:(p0+t)*n+j0+nc])
			}
			for i := r0; i < r1; i++ {
				or := out[i*n+j0 : i*n+j0+nc]
				if p0 == 0 {
					for j := range or {
						or[j] = 0
					}
				}
				saxpyRows(or, a[i*k+p0:i*k+p0+kc], 1, pack, kc, nc)
			}
		}
	}
	panelBuf.Put(bufp)
}

func matMulRows(out, a, b []float32, r0, r1, k, n int) {
	for i := r0; i < r1; i++ {
		or := out[i*n : (i+1)*n]
		for j := range or {
			or[j] = 0
		}
		saxpyRows(or, a[i*k:(i+1)*k], 1, b, k, n)
	}
}

// saxpyRows accumulates or += Σ_p ar[p·stride]·b[p,:], pairing two p-rows
// per sweep to halve the passes over or. The written association
// ((or + a1·b1) + a2·b2) matches two sequential saxpy calls bit-for-bit.
func saxpyRows(or, ar []float32, stride int, b []float32, k, n int) {
	p := 0
	for ; p+2 <= k; p += 2 {
		a1, a2 := ar[p*stride], ar[(p+1)*stride]
		switch {
		case a1 == 0 && a2 == 0:
		case a2 == 0:
			saxpy(or, b[p*n:(p+1)*n], a1)
		case a1 == 0:
			saxpy(or, b[(p+1)*n:(p+2)*n], a2)
		default:
			saxpy2(or, b[p*n:(p+1)*n], b[(p+1)*n:(p+2)*n], a1, a2)
		}
	}
	if p < k {
		if av := ar[p*stride]; av != 0 {
			saxpy(or, b[p*n:(p+1)*n], av)
		}
	}
}

// saxpy performs or += av·br elementwise, unrolled 4-wide. Elements are
// independent, so results match the plain loop bit-for-bit.
func saxpy(or, br []float32, av float32) {
	n := len(or)
	j := 0
	for ; j+4 <= n; j += 4 {
		or[j] += av * br[j]
		or[j+1] += av * br[j+1]
		or[j+2] += av * br[j+2]
		or[j+3] += av * br[j+3]
	}
	for ; j < n; j++ {
		or[j] += av * br[j]
	}
}

// saxpy2 performs or = (or + a1·b1) + a2·b2 elementwise, preserving the
// association of two sequential saxpy calls exactly.
func saxpy2(or, b1, b2 []float32, a1, a2 float32) {
	n := len(or)
	if len(b1) < n || len(b2) < n {
		panic("tensor: saxpy2 operand too short")
	}
	j := 0
	for ; j+4 <= n; j += 4 {
		t0 := or[j] + a1*b1[j]
		t1 := or[j+1] + a1*b1[j+1]
		t2 := or[j+2] + a1*b1[j+2]
		t3 := or[j+3] + a1*b1[j+3]
		or[j] = t0 + a2*b2[j]
		or[j+1] = t1 + a2*b2[j+1]
		or[j+2] = t2 + a2*b2[j+2]
		or[j+3] = t3 + a2*b2[j+3]
	}
	for ; j < n; j++ {
		or[j] = (or[j] + a1*b1[j]) + a2*b2[j]
	}
}

// MatMulRaw computes out = a@b on raw row-major buffers: a [m,k], b [k,n],
// out [m,n] (overwritten). The raw kernels let graph ops on higher-rank
// tensors skip the 2-D view tensors entirely.
func MatMulRaw(out, a, b []float32, m, k, n int) {
	h, t0 := kernelStart()
	matMulInto(out, a, b, m, k, n)
	kernelEnd(h, t0, KernelMatMul)
}

// MatMulTransBRaw computes out = a@bᵀ on raw buffers: a [m,k], b [n,k],
// out [m,n] (overwritten).
func MatMulTransBRaw(out, a, b []float32, m, k, n int) {
	h, t0 := kernelStart()
	matMulTransBRaw(out, a, b, m, k, n)
	kernelEnd(h, t0, KernelMatMul)
}

// matMulTransBRaw is the unhooked a@bᵀ kernel, shared with the conv and
// batched paths so nested uses are not double-counted by the hook.
func matMulTransBRaw(out, a, b []float32, m, k, n int) {
	nc := chunks(m, m*k*n)
	if nc == 1 {
		dotRows(out, a, b, m, k, n)
		return
	}
	parallelFor(m, nc, func(_, r0, r1 int) {
		dotRows(out[r0*n:r1*n], a[r0*k:r1*k], b, r1-r0, k, n)
	})
}

// MatMulTransAAddRaw accumulates out += aᵀ@b on raw buffers: a [k,m],
// b [k,n], out [m,n] (must hold the accumulation base, typically zeros).
func MatMulTransAAddRaw(out, a, b []float32, m, k, n int) {
	h, t0 := kernelStart()
	transAOuter(out, a, b, m, k, n)
	kernelEnd(h, t0, KernelMatMul)
}
