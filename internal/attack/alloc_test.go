package attack

import (
	"runtime"
	"testing"

	"pelta/internal/core"
	"pelta/internal/models"
	"pelta/internal/tensor"
)

// TestShieldedGradCEAllocBound is the allocation gate of the shielded
// gradient query: in steady state, one GradCE on a shielded model may
// allocate at most twice the bytes Algorithm 1 moves into the enclave.
// Clear-region weight gradients, per-crossing codec buffers and per-pass
// enclave objects would each break it.
func TestShieldedGradCEAllocBound(t *testing.T) {
	cases := map[string]models.Model{
		"vit": models.NewViT(models.SmallViT("alloc-vit", 6, 16, 4), tensor.NewRNG(1)),
		"bit": models.NewBiT(models.SmallBiT("alloc-bit", 6, 16), tensor.NewRNG(1)),
	}
	for name, m := range cases {
		t.Run(name, func(t *testing.T) {
			sm, err := core.NewShieldedModel(m, 0)
			if err != nil {
				t.Fatal(err)
			}
			o, err := NewShieldedOracle(sm, 1)
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.NewRNG(2).Uniform(0, 1, 4, 3, 16, 16)
			y := []int{0, 1, 2, 3}
			res, err := sm.Query(x, core.CrossEntropyLoss(y))
			if err != nil {
				t.Fatal(err)
			}
			shielded := res.Report.Bytes
			for i := 0; i < 3; i++ {
				if _, _, err := o.GradCE(x, y); err != nil {
					t.Fatal(err)
				}
			}

			const n = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				if _, _, err := o.GradCE(x, y); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perQuery := int64(after.TotalAlloc-before.TotalAlloc) / n
			t.Logf("%d B allocated per query, %d B shielded (%.2fx)", perQuery, shielded, float64(perQuery)/float64(shielded))
			if perQuery > 2*shielded {
				t.Fatalf("shielded GradCE allocates %d B per query, above 2 x %d B shielded", perQuery, shielded)
			}
		})
	}
}
