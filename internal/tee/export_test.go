package tee

import "pelta/internal/tensor"

// HeldBuffers exposes, to external tests, every tensor the enclave holds
// (stored objects and recycled free-list buffers).
func HeldBuffers(e *Enclave) []*tensor.Tensor { return heldBuffers(e) }

// Overlaps reports whether two float slices share backing memory.
var Overlaps = overlaps
