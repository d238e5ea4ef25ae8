package tensor

import (
	"math/bits"
	"sync"
)

// Pool is a size-bucketed free list of tensor backing buffers. Get borrows a
// buffer (contents are unspecified unless GetZero is used) and Put returns
// it. Buffers are bucketed by power-of-two capacity, so a Put'd buffer can
// satisfy any later Get whose element count rounds up to the same class.
//
// The pool is the allocation backbone of the reusable-memory execution
// engine: an autograd.Graph borrows every forward/backward tensor from a
// Pool and returns them in one sweep (Graph.Release) after the pass, making
// steady-state attack and training iterations allocation-free.
//
// A Pool is safe for concurrent use. Kernels borrow their scratch from the
// calling goroutine only, once per call, never from inside a parallel
// shard; concurrent callers each bring their own pool, so the mutex stays
// uncontended.
type Pool struct {
	mu      sync.Mutex
	buckets map[int][]*Tensor
	// intBuckets recycles integer index buffers (max-pool argmax maps) the
	// same way, keyed by power-of-two capacity.
	intBuckets map[int][][]int

	gets   int64
	misses int64
	puts   int64
}

// maxPerBucket bounds how many free buffers one size class retains; beyond
// that, Put drops the buffer for the GC, keeping pathological shape churn
// from pinning unbounded memory.
const maxPerBucket = 512

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{buckets: make(map[int][]*Tensor), intBuckets: make(map[int][][]int)}
}

// GetInts borrows an integer buffer of length n (contents unspecified).
func (p *Pool) GetInts(n int) []int {
	class := sizeClass(n)
	p.mu.Lock()
	free := p.intBuckets[class]
	if len(free) > 0 {
		buf := free[len(free)-1]
		free[len(free)-1] = nil
		p.intBuckets[class] = free[:len(free)-1]
		p.mu.Unlock()
		return buf[:n]
	}
	p.mu.Unlock()
	return make([]int, n, class)
}

// PutInts returns a whole integer buffer (no sub-slices of live buffers)
// to the pool.
func (p *Pool) PutInts(buf []int) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:cap(buf)]
	class := len(buf)
	if class&(class-1) != 0 {
		class = 1 << (bits.Len(uint(class)) - 1)
	}
	p.mu.Lock()
	if len(p.intBuckets[class]) < maxPerBucket {
		p.intBuckets[class] = append(p.intBuckets[class], buf)
	}
	p.mu.Unlock()
}

// sizeClass rounds n up to the next power of two (minimum 1).
func sizeClass(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Get borrows a tensor with the given shape. The contents are NOT zeroed;
// callers must overwrite every element or use GetZero. The *Tensor struct
// itself (and its shape header) is recycled along with the buffer, so a
// warm Get performs no allocation at all.
func (p *Pool) Get(shape ...int) *Tensor {
	n := checkShape(shape)
	class := sizeClass(n)
	p.mu.Lock()
	p.gets++
	free := p.buckets[class]
	if len(free) > 0 {
		t := free[len(free)-1]
		free[len(free)-1] = nil
		p.buckets[class] = free[:len(free)-1]
		p.mu.Unlock()
		t.data = t.data[:n]
		if cap(t.shape) >= len(shape) {
			t.shape = t.shape[:len(shape)]
			copy(t.shape, shape)
		} else {
			t.shape = append([]int(nil), shape...)
		}
		return t
	}
	p.misses++
	p.mu.Unlock()
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n, class)}
}

// GetZero borrows a zero-filled tensor with the given shape.
func (p *Pool) GetZero(shape ...int) *Tensor {
	t := p.Get(shape...)
	t.Zero()
	return t
}

// Put returns a tensor (struct, shape header and backing buffer) to the
// pool. The caller must not use t — or any view sharing its buffer —
// afterwards. Tensors not allocated by the pool are adopted: their buffer
// is filed under the largest power-of-two class not exceeding its capacity.
//
// Only whole buffers may be Put. Views (Slice, Row, SliceRange, Reshape of
// a sub-range) share a backing array whose capacity extends past the view,
// so adopting one would file live memory belonging to the parent tensor
// into the free list.
func (p *Pool) Put(t *Tensor) {
	if t == nil || cap(t.data) == 0 {
		return
	}
	t.data = t.data[:cap(t.data)]
	class := len(t.data)
	if class&(class-1) != 0 { // not a power of two: file under floor class
		class = 1 << (bits.Len(uint(class)) - 1)
	}
	p.mu.Lock()
	p.puts++
	if len(p.buckets[class]) < maxPerBucket {
		p.buckets[class] = append(p.buckets[class], t)
	}
	p.mu.Unlock()
}

// PoolStats is a snapshot of pool traffic, used by benchmarks and tests to
// assert steady-state reuse.
type PoolStats struct {
	// Gets counts borrow requests; Misses counts the subset that had to
	// allocate fresh memory. A warm steady state shows Misses ≪ Gets.
	Gets, Misses, Puts int64
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Gets: p.gets, Misses: p.misses, Puts: p.puts}
}
