package codec

import (
	"testing"
	"time"

	"avdb/internal/media"
)

func benchVideo(b *testing.B, frames int) *media.VideoValue {
	b.Helper()
	v := media.NewVideoValue(media.TypeRawVideo30, 160, 120, 8)
	for i := 0; i < frames; i++ {
		f := media.NewFrame(160, 120, 8)
		for y := 0; y < 120; y++ {
			for x := 0; x < 160; x++ {
				f.Set(x, y, byte(x+y+i))
			}
		}
		if err := v.AppendFrame(f); err != nil {
			b.Fatal(err)
		}
	}
	return v
}

func BenchmarkIntraEncode(b *testing.B) {
	v := benchVideo(b, 30)
	b.SetBytes(v.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := JPEG.Encode(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntraDecode(b *testing.B) {
	v := benchVideo(b, 30)
	e, err := JPEG.Encode(v)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(v.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := JPEG.Decode(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterEncode(b *testing.B) {
	v := benchVideo(b, 30)
	b.SetBytes(v.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MPEG.Encode(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterDecodeSequential(b *testing.B) {
	v := benchVideo(b, 30)
	e, err := MPEG.Encode(v)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(v.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MPEG.Decode(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntraRandomAccessFrame(b *testing.B) {
	v := benchVideo(b, 30)
	e, err := JPEG.Encode(v)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := JPEG.(*Intra).DecodeFrame(e, 14); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalableEncode(b *testing.B) {
	v := benchVideo(b, 30)
	b.SetBytes(v.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScalableCodec.Encode(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalableDropLayers(b *testing.B) {
	v := benchVideo(b, 30)
	e, err := ScalableCodec.Encode(v)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DropLayers(e, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// The stream coder, quant 2 and GOP 15, on two 160×120 motion clips:
// "news24", the 24-bit frames of a decoded Newscast viewer, and "camera8",
// the 8-bit camera a recording encodes.  Key and predicted frames are
// timed apart (key-ns/frame, P-ns/frame and per byte), as their kernels'
// paths differ.  Guards for the fused kernels, not claims: the claim is
// made end to end by bench/.

var streamContents = []struct {
	name  string
	depth int
}{{"news24", 24}, {"camera8", 8}}

// frameTimes accumulates a stream benchmark's time by frame kind.
type frameTimes struct {
	ns, frames [2]int64 // [0] predicted, [1] key
}

func (ft *frameTimes) add(key bool, d time.Duration) {
	k := 0
	if key {
		k = 1
	}
	ft.ns[k] += int64(d)
	ft.frames[k]++
}

func (ft *frameTimes) report(b *testing.B, frameBytes int) {
	for k, kind := range []string{"P", "key"} {
		if ft.frames[k] == 0 {
			continue
		}
		perFrame := float64(ft.ns[k]) / float64(ft.frames[k])
		b.ReportMetric(perFrame, kind+"-ns/frame")
		b.ReportMetric(perFrame/float64(frameBytes), kind+"-ns/B")
	}
}

func BenchmarkStreamDecode(b *testing.B) {
	for _, c := range streamContents {
		b.Run(c.name, func(b *testing.B) {
			_, efs := motionFrames(b, c.depth, 30)
			dec, err := NewVideoStreamDecoder(160, 120, c.depth, 2)
			if err != nil {
				b.Fatal(err)
			}
			frameBytes := 160 * 120 * c.depth / 8
			var ft frameTimes
			b.SetBytes(int64(frameBytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ef := efs[i%len(efs)]
				start := time.Now()
				if _, err := dec.DecodeFrame(ef); err != nil {
					b.Fatal(err)
				}
				ft.add(ef.Key, time.Since(start))
			}
			ft.report(b, frameBytes)
		})
	}
}

func BenchmarkStreamEncode(b *testing.B) {
	for _, c := range streamContents {
		b.Run(c.name, func(b *testing.B) {
			clip, _ := motionFrames(b, c.depth, 30)
			enc, err := NewInterStreamEncoder(2, 15)
			if err != nil {
				b.Fatal(err)
			}
			frameBytes := 160 * 120 * c.depth / 8
			var ft frameTimes
			b.SetBytes(int64(frameBytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, _ := clip.Frame(i % clip.NumFrames())
				start := time.Now()
				ef, err := enc.EncodeFrame(f)
				if err != nil {
					b.Fatal(err)
				}
				ft.add(ef.Key, time.Since(start))
			}
			ft.report(b, frameBytes)
		})
	}
}
