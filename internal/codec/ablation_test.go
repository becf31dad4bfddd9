package codec

import (
	"avdb/internal/media"
	"fmt"
	"testing"
)

// BenchmarkGOPAblation sweeps the inter codec's key-frame period: larger
// GOPs compress harder but leave fewer GOPs to decode in parallel — the
// trade-off behind choosing representations for editing vs archival
// workloads.
func BenchmarkGOPAblation(b *testing.B) {
	v := benchVideo(b, 30)
	for _, gop := range []int{1, 5, 15, 30} {
		b.Run(fmt.Sprintf("gop=%d", gop), func(b *testing.B) {
			c := &Inter{Quant: 2, GOPN: gop}
			e, err := c.Encode(v)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(e.Size()), "encoded-bytes")
			b.ReportMetric(e.CompressionRatio(), "ratio:1")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Decode(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuantAblation sweeps the intra codec's quantization: coarser
// quantization trades pixel error for compression.
func BenchmarkQuantAblation(b *testing.B) {
	v := benchVideo(b, 10)
	for _, q := range []int{0, 2, 4, 6} {
		b.Run(fmt.Sprintf("quant=%d", q), func(b *testing.B) {
			c := &Intra{CodecName: fmt.Sprintf("bench-q%d", q), Typ: TypeJPEGVideo, Quant: q}
			var size int64
			b.SetBytes(v.Size())
			for i := 0; i < b.N; i++ {
				e, err := c.Encode(v)
				if err != nil {
					b.Fatal(err)
				}
				size = e.Size()
			}
			b.ReportMetric(float64(size), "encoded-bytes")
		})
	}
}

// TestGOPAblationShape pins the qualitative claim the ablation rests on:
// compression improves monotonically with GOP, and the last frame of the
// longest GOP still decodes within the error bound.
func TestGOPAblationShape(t *testing.T) {
	v := smoothVideo(30, 32, 24)
	var prevSize int64 = 1 << 60
	for _, gop := range []int{1, 5, 15, 30} {
		c := &Inter{Quant: 2, GOPN: gop}
		e, err := c.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if e.Size() >= prevSize {
			t.Errorf("gop %d: size %d not below previous %d", gop, e.Size(), prevSize)
		}
		prevSize = e.Size()
		d, err := c.Decode(e)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := d.Frame(29)
		want, _ := v.Frame(29)
		if maxErr := frameMaxErr(f, want); maxErr > 2 {
			t.Errorf("gop %d: frame 29 error %d", gop, maxErr)
		}
	}
}

func frameMaxErr(a, b *media.Frame) int {
	var worst int
	for p := range a.Pix {
		d := int(a.Pix[p]) - int(b.Pix[p])
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}
