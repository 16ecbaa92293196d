package secure

import (
	"errors"
	"testing"

	"seal/internal/core"
	"seal/internal/models"
	"seal/internal/parallel"
	"seal/internal/prng"
)

// TestTamperFailsClosed flips one bit of a stored ciphertext block, a
// stored bypass block and each one's tag, on float and int8 images, at
// one and eight workers: every flip must make Forward return an error
// wrapping core.ErrTampered and no logits, and once the bit is flipped
// back the engine must serve the reference logits again. A flipped
// byte of an int8 scales header must make NewEngine fail.
func TestTamperFailsClosed(t *testing.T) {
	arch := models.VGG16Arch().Scale(0.125, 0)
	x := randInput(prng.New(12), arch, 2)
	for _, f := range imageFormats {
		t.Run(f.name, func(t *testing.T) {
			e, m := buildEngine(t, f, arch, core.DefaultOptions(), 0.5, 8, 4096)
			want := cloneData(m.Forward(x, false))
			img := e.Image()
			lp := img.Layout.Plan.Layers[2] // an SE layer: half its rows encrypted
			r := img.Layout.Region("w:" + lp.Name)
			encAddr, plainAddr := uint64(0), uint64(0)
			for c, enc := range lp.EncRows {
				addr := r.Base + uint64(c)*r.BlockBytes
				if enc && encAddr == 0 {
					encAddr = addr
				}
				if !enc && plainAddr == 0 {
					plainAddr = addr
				}
			}
			if encAddr == 0 || plainAddr == 0 {
				t.Fatalf("%s has no mix of encrypted and bypass rows", lp.Name)
			}
			flips := []struct {
				name string
				flip func() bool
			}{
				{"ciphertext block", func() bool { return img.Tamper(encAddr+5, 0x10) }},
				{"bypass block", func() bool { return img.Tamper(plainAddr+r.BlockBytes-1, 0x01) }},
				{"ciphertext tag", func() bool { return img.TamperTag(encAddr, 0, 0x80) }},
				{"bypass tag", func() bool { return img.TamperTag(plainAddr, 15, 0x02) }},
			}
			for _, fl := range flips {
				for _, workers := range []int{1, 8} {
					if !fl.flip() {
						t.Fatalf("%s: the image holds no byte to tamper with", fl.name)
					}
					prev := parallel.SetWorkers(workers)
					got, err := e.Forward(x)
					parallel.SetWorkers(prev)
					fl.flip() // XOR again restores the bit
					if !errors.Is(err, core.ErrTampered) || got != nil {
						t.Fatalf("%s at %d workers: Forward returned %v logits, error %v; want none and ErrTampered",
							fl.name, workers, got != nil, err)
					}
				}
			}
			got := forward(t, e, x)
			for i := range want {
				if got.Data[i] != want[i] {
					t.Fatalf("restored image: logit %d = %v, want %v", i, got.Data[i], want[i])
				}
			}
		})
	}
	t.Run("int8 scales header", func(t *testing.T) {
		e, m := buildEngine(t, int8Image, arch, core.DefaultOptions(), 0.5, 8, 0)
		img := e.Image()
		qs := img.Layout.Region("qs:" + img.Layout.Plan.Layers[3].Name)
		if !img.Tamper(qs.Base+2, 0x04) {
			t.Fatal("the image holds no scales header byte")
		}
		if _, err := NewEngine(img, m, 0); !errors.Is(err, core.ErrTampered) {
			t.Fatalf("NewEngine over a tampered scales header: %v, want ErrTampered", err)
		}
	})
}
