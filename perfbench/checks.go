package main

import (
	"fmt"
	"math"

	"pelta/internal/fl"
	"pelta/internal/tensor"
)

// Output checks. Each returns nil when the program's output is correct;
// perfbench_test.go feeds every one a deliberately corrupted output and
// requires it to fail.

// checkEpsBall requires every adversarial sample to stay within eps of its
// clean sample in L∞ and inside the [0,1] pixel range.
func checkEpsBall(adv, x0 *tensor.Tensor, eps float32) error {
	if !adv.SameShape(x0) {
		return fmt.Errorf("adversarial batch %v, clean batch %v", adv.Shape(), x0.Shape())
	}
	a, b := adv.Data(), x0.Data()
	for i := range a {
		if !(a[i] >= 0 && a[i] <= 1) {
			return fmt.Errorf("adversarial pixel %d = %v outside [0,1]", i, a[i])
		}
		// A small slack absorbs float32 rounding in the projection.
		if d := math.Abs(float64(a[i] - b[i])); d > float64(eps)+1e-6 {
			return fmt.Errorf("adversarial pixel %d moved %v, beyond ε=%v", i, d, eps)
		}
	}
	return nil
}

// checkBitIdentical requires two tensors to hold exactly the same bits.
func checkBitIdentical(what string, got, want *tensor.Tensor) error {
	if !got.SameShape(want) {
		return fmt.Errorf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	g, w := got.Data(), want.Data()
	for i := range g {
		if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
			return fmt.Errorf("%s: element %d is %v, want %v", what, i, g[i], w[i])
		}
	}
	return nil
}

// checkShieldGap requires the shield to keep robust accuracy at least floor
// above the clear twin's under the same attacks.
func checkShieldGap(shielded, clear, floor float64) error {
	if !(shielded-clear >= floor) {
		return fmt.Errorf("shielded robust accuracy %.3f is not %.2f above clear %.3f", shielded, floor, clear)
	}
	return nil
}

// checkDetection requires the detector to flag at least one query of every
// probe client and no query of any benign client. flagged[c] counts client
// c's flagged answers.
func checkDetection(flagged []int) error {
	for c, n := range flagged {
		probe := c < probeClients
		if probe && n == 0 {
			return fmt.Errorf("probe client %s was never flagged", clientName(c))
		}
		if !probe && n > 0 {
			return fmt.Errorf("benign client %s was flagged %d times", clientName(c), n)
		}
	}
	return nil
}

// checkFinite requires every global weight to be a finite number.
func checkFinite(w fl.Weights) error {
	for i, d := range w.Data {
		for j, v := range d {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return fmt.Errorf("weight %s[%d] = %v", w.Names[i], j, v)
			}
		}
	}
	return nil
}

// checkAtLeast requires v ≥ floor.
func checkAtLeast(what string, v, floor float64) error {
	if !(v >= floor) {
		return fmt.Errorf("%s %.3f below %.3f", what, v, floor)
	}
	return nil
}

// sameWeights requires two snapshots to hold exactly the same bits.
func sameWeights(a, b fl.Weights) error {
	if len(a.Data) != len(b.Data) {
		return fmt.Errorf("%d tensors, want %d", len(b.Data), len(a.Data))
	}
	for i := range a.Data {
		if err := checkBitIdentical(a.Names[i], tensor.FromSlice(b.Data[i], len(b.Data[i])),
			tensor.FromSlice(a.Data[i], len(a.Data[i]))); err != nil {
			return err
		}
	}
	return nil
}

func clientName(c int) string {
	if c < probeClients {
		return fmt.Sprintf("probe-%d", c)
	}
	return fmt.Sprintf("benign-%d", c-probeClients)
}
