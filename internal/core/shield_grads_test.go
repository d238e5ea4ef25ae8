package core

import (
	"math"
	"slices"
	"testing"

	"pelta/internal/autograd"
	"pelta/internal/models"
	"pelta/internal/tensor"
)

func sameBits(a, b *tensor.Tensor) bool {
	if a == nil || b == nil {
		return a == b
	}
	if !slices.Equal(a.Shape(), b.Shape()) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// TestShieldRegionGradsLeaveLedgerUnchanged checks that tracking parameter
// gradients for the shield region only changes nothing Algorithm 1 stores
// or the attacker observes. A reference ShieldedModel on the same weights
// runs the old pass: a graph tracking every parameter, all gradients zeroed
// afterwards. Outputs, the shield report, the enclave metrics and every
// stored object must match bit for bit, and the restricted pass must leave
// every clear-region gradient untouched.
func TestShieldRegionGradsLeaveLedgerUnchanged(t *testing.T) {
	builds := map[string]func() models.Model{
		"vit": func() models.Model {
			return models.NewViT(models.SmallViT("eq-vit", 5, 16, 4), tensor.NewRNG(21))
		},
		"bit": func() models.Model {
			return models.NewBiT(models.SmallBiT("eq-bit", 5, 16), tensor.NewRNG(22))
		},
		"resnet": func() models.Model {
			return models.NewResNet(models.SmallResNet("eq-resnet", 5, 16), tensor.NewRNG(23))
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			m := build()
			x := tensor.NewRNG(24).Uniform(0, 1, 3, 3, 16, 16)
			y := []int{0, 3, 4}

			sm, err := NewShieldedModel(m, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sm.Query(x, CrossEntropyLoss(y))
			if err != nil {
				t.Fatal(err)
			}
			shielded := make(map[*autograd.Param]bool)
			for _, p := range m.ShieldedParams() {
				shielded[p] = true
			}
			for _, p := range m.Params() {
				if !isZero(p.Grad) {
					t.Errorf("%s gradient (shielded: %v) is non-zero after the query", p.Name, shielded[p])
				}
			}

			ref, err := NewShieldedModel(m, 0)
			if err != nil {
				t.Fatal(err)
			}
			ref.g = autograd.NewGraphWithPool(tensor.NewPool())
			ref.shielded = m.Params()
			want, err := ref.Query(x, CrossEntropyLoss(y))
			if err != nil {
				t.Fatal(err)
			}

			if !sameBits(got.Logits, want.Logits) || got.Loss != want.Loss || !sameBits(got.Adjoint, want.Adjoint) {
				t.Fatal("logits, loss or adjoint differ from the all-parameter pass")
			}
			gr, wr := got.Report, want.Report
			if gr.Vertices != wr.Vertices || gr.Jacobians != wr.Jacobians || gr.Params != wr.Params ||
				gr.Bytes != wr.Bytes || !slices.Equal(gr.Keys, wr.Keys) {
				t.Fatalf("shield report differs:\n got %+v\nwant %+v", *gr, *wr)
			}
			if sm.Enclave().Metrics() != ref.Enclave().Metrics() {
				t.Fatalf("enclave metrics differ:\n got %+v\nwant %+v", sm.Enclave().Metrics(), ref.Enclave().Metrics())
			}
			for _, key := range gr.Keys {
				a, err := sm.Enclave().Load(sm.token, key)
				if err != nil {
					t.Fatal(err)
				}
				b, err := ref.Enclave().Load(ref.token, key)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(a, b) {
					t.Fatalf("stored object %q differs", key)
				}
			}
		})
	}
}
