package codec

import (
	"testing"

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

func BenchmarkInterRandomAccessFrame(b *testing.B) {
	v := benchVideo(b, 30)
	e, err := MPEG.Encode(v)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Worst case: the frame just before the next key frame.
		if _, err := MPEG.DecodeFrame(e, 14); err != nil {
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
		if _, err := JPEG.DecodeFrame(e, 14); err != nil {
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

func benchAudio(b *testing.B) *media.AudioValue {
	b.Helper()
	a := media.NewAudioValue(media.TypeCDAudio, 2)
	samples := make([]int16, 44100*2)
	for i := range samples {
		samples[i] = int16((i * 37) % 16384)
	}
	if err := a.AppendSamples(samples); err != nil {
		b.Fatal(err)
	}
	return a
}

func BenchmarkMuLawEncode(b *testing.B) {
	a := benchAudio(b)
	b.SetBytes(a.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MuLawCodec.Encode(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkADPCMEncode(b *testing.B) {
	a := benchAudio(b)
	b.SetBytes(a.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ADPCMCodec.Encode(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkADPCMDecode(b *testing.B) {
	a := benchAudio(b)
	e, err := ADPCMCodec.Encode(a)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(a.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ADPCMCodec.Decode(e); err != nil {
			b.Fatal(err)
		}
	}
}

// The stream coder on the frames of a decoded Newscast viewer (160×120×24
// motion clip, quant 2, GOP 15).  Guards for the fused kernels, not
// claims: the claim is made end to end by bench/.

func BenchmarkStreamDecode(b *testing.B) {
	_, efs := newsFrames(b, 30)
	dec, err := NewVideoStreamDecoder(160, 120, 24, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(160 * 120 * 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.DecodeFrame(efs[i%len(efs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamEncode(b *testing.B) {
	clip, _ := newsFrames(b, 30)
	enc, err := NewInterStreamEncoder(2, 15)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(160 * 120 * 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _ := clip.Frame(i % clip.NumFrames())
		if _, err := enc.EncodeFrame(f); err != nil {
			b.Fatal(err)
		}
	}
}
