package tee

import (
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"pelta/internal/tensor"
)

func allZeroBytes(b []byte) bool {
	for _, v := range b[:cap(b)] {
		if v != 0 {
			return false
		}
	}
	return true
}

func allZeroFloats(d []float32) bool {
	for _, v := range d {
		if v != 0 {
			return false
		}
	}
	return true
}

// overlaps reports whether two float slices share any backing memory.
func overlaps(a, b []float32) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	const w = unsafe.Sizeof(float32(0))
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b))*w && b0 < a0+uintptr(len(a))*w
}

// heldBuffers returns every tensor the enclave holds: stored objects and
// the free list.
func heldBuffers(e *Enclave) []*tensor.Tensor {
	e.mu.Lock()
	defer e.mu.Unlock()
	held := append([]*tensor.Tensor(nil), e.free...)
	for _, t := range e.objects {
		held = append(held, t)
	}
	return held
}

// Confidentiality violations checkCrossingHygiene can report.
const (
	leftPlaintext = "plaintext left in a channel buffer after Store"
	dirtyFreeList = "flushed data on the free list"
	noReuse       = "Store did not reuse a recycled buffer of its shape"
	loadAliases   = "Load result aliases enclave memory"
	corrupted     = "payload corrupted"
)

// checkCrossingHygiene runs two passes of stores, flushes and loads and
// returns every kind of confidentiality violation it saw.
func checkCrossingHygiene(t *testing.T, e *Enclave, tok Token) map[string]bool {
	t.Helper()
	seen := make(map[string]bool)
	shapes := [][]int{{4, 8}, {2, 3, 5}, {64}}
	for pass := 0; pass < 2; pass++ {
		var recycled map[*tensor.Tensor]bool
		if pass > 0 {
			if err := e.FlushAll(tok); err != nil {
				t.Fatal(err)
			}
			recycled = make(map[*tensor.Tensor]bool)
			for _, r := range e.free {
				if !allZeroFloats(r.Data()) {
					seen[dirtyFreeList] = true
				}
				recycled[r] = true
			}
		}
		for i, shape := range shapes {
			key := fmt.Sprintf("p%d/%d", pass, i)
			x := tensor.NewRNG(int64(10*pass+i)).Normal(0, 1, shape...)
			if err := e.Store(key, x); err != nil {
				t.Fatal(err)
			}
			if !allZeroBytes(e.channel.plain) || !allZeroBytes(e.channel.sealed) {
				seen[leftPlaintext] = true
			}
			if recycled != nil && !recycled[e.objects[key]] {
				seen[noReuse] = true
			}
			got, err := e.Load(tok, key)
			if err != nil {
				t.Fatal(err)
			}
			if !got.AllClose(x, 0) {
				seen[corrupted] = true
			}
			for _, h := range heldBuffers(e) {
				if overlaps(got.Data(), h.Data()) {
					seen[loadAliases] = true
				}
			}
		}
	}
	return seen
}

// TestCrossingLeavesNoPlaintext checks the reused crossing buffers and the
// enclave free list are zeroed, recycled, and never handed out. The
// negative control skips the zeroing; both zeroing checks must catch it.
func TestCrossingLeavesNoPlaintext(t *testing.T) {
	e, tok := newTestEnclave(t, 1<<20)
	for v := range checkCrossingHygiene(t, e, tok) {
		t.Error(v)
	}

	leaky, tok := newTestEnclave(t, 1<<20)
	leaky.channel.keepPlaintext = true
	seen := checkCrossingHygiene(t, leaky, tok)
	for _, v := range []string{leftPlaintext, dirtyFreeList} {
		if !seen[v] {
			t.Errorf("negative control: skipping the zeroing went unnoticed (%s)", v)
		}
	}
	if seen[corrupted] {
		t.Error("negative control: skipping the zeroing corrupted a payload")
	}
}

// TestFreeListWithinLimit checks retained recycled bytes plus used bytes
// never exceed the enclave limit, across stores whose shapes miss the free
// list, and that a miss evicts recycled memory rather than failing.
func TestFreeListWithinLimit(t *testing.T) {
	e, tok := newTestEnclave(t, 400) // 100 floats
	within := func(step string) {
		t.Helper()
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.retained+e.used > e.limit {
			t.Fatalf("%s: retained %d + used %d > limit %d", step, e.retained, e.used, e.limit)
		}
	}
	for round, n := range []int{60, 30, 90, 10, 100} {
		if err := e.FlushAll(tok); err != nil {
			t.Fatal(err)
		}
		within("flush")
		if err := e.Store(fmt.Sprint("a", round), tensor.Ones(n)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		within("store")
		if err := e.Accumulate(tok, fmt.Sprint("acc", round), tensor.Ones(100-n)); err != nil && !errors.Is(err, ErrEnclaveFull) {
			t.Fatal(err)
		}
		within("accumulate")
	}
	if err := e.Flush(tok, "a4"); err != nil {
		t.Fatal(err)
	}
	within("single flush")
	if e.Used() != 0 {
		t.Fatalf("used = %d after flushing everything", e.Used())
	}
}
