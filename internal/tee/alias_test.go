package tee_test

import (
	"testing"

	"pelta/internal/core"
	"pelta/internal/models"
	"pelta/internal/tee"
	"pelta/internal/tensor"
)

// TestQueryResultsNeverAliasEnclaveMemory runs repeated shielded queries,
// so the enclave recycles its buffers between passes, and checks that no
// tensor a Query handed out shares memory with anything the enclave holds,
// and that recycling never rewrites an earlier result.
func TestQueryResultsNeverAliasEnclaveMemory(t *testing.T) {
	m := models.NewBiT(models.SmallBiT("alias-bit", 5, 16), tensor.NewRNG(2))
	sm, err := core.NewShieldedModel(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewRNG(3).Uniform(0, 1, 2, 3, 16, 16)
	var handed, snapshots []*tensor.Tensor
	for pass := 0; pass < 4; pass++ {
		res, err := sm.Query(x, core.CrossEntropyLoss([]int{0, 1}))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*tensor.Tensor{res.Logits, res.Adjoint} {
			handed = append(handed, r)
			snapshots = append(snapshots, r.Clone())
		}
		held := tee.HeldBuffers(sm.Enclave())
		if len(held) == 0 {
			t.Fatal("enclave holds nothing after a shielded query")
		}
		for _, h := range held {
			for _, r := range handed {
				if tee.Overlaps(r.Data(), h.Data()) {
					t.Fatalf("pass %d: a query result aliases an enclave buffer %v", pass, h.Shape())
				}
			}
		}
		for i, r := range handed {
			if !r.AllClose(snapshots[i], 0) {
				t.Fatalf("pass %d: recycling rewrote an earlier query result", pass)
			}
		}
	}
}
