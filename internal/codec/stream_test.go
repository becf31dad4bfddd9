package codec

import (
	"testing"

	"avdb/internal/media"
)

func TestStreamEncoderMatchesBatch(t *testing.T) {
	v := smoothVideo(23, 32, 24)
	batch, err := (&Inter{Quant: 2, GOPN: 5}).Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewInterStreamEncoder(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < v.NumFrames(); i++ {
		f, _ := v.Frame(i)
		ef, err := se.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		bf, _ := batch.FrameData(i)
		if ef.Key != bf.Key {
			t.Fatalf("frame %d key flag differs", i)
		}
		if string(ef.Data) != string(bf.Data) {
			t.Fatalf("frame %d payload differs from batch encoder", i)
		}
	}
}

func TestStreamRoundTripLossless(t *testing.T) {
	v := smoothVideo(17, 32, 24)
	se, err := NewInterStreamEncoder(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := NewVideoStreamDecoder(32, 24, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < v.NumFrames(); i++ {
		f, _ := v.Frame(i)
		ef, err := se.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sd.DecodeFrame(ef)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(f) {
			t.Fatalf("frame %d not lossless", i)
		}
	}
}

func TestStreamEncoderGeometryChangeRejected(t *testing.T) {
	se, err := NewIntraStreamEncoder(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.EncodeFrame(media.NewFrame(8, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := se.EncodeFrame(media.NewFrame(4, 4, 8)); err == nil {
		t.Error("geometry change accepted mid-stream")
	}
	se.Reset()
	if _, err := se.EncodeFrame(media.NewFrame(4, 4, 8)); err != nil {
		t.Errorf("encode after reset failed: %v", err)
	}
	if se.quant != 2 || se.gop != 1 {
		t.Error("metadata wrong")
	}
}

func TestStreamDecoderRequiresKeyFirst(t *testing.T) {
	se, err := NewInterStreamEncoder(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := NewVideoStreamDecoder(8, 8, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := media.NewFrame(8, 8, 8)
	key, err := se.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	p, err := se.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	// A P frame before any key frame is rejected.
	if _, err := sd.DecodeFrame(p); err == nil {
		t.Error("P frame decoded without reference")
	}
	if _, err := sd.DecodeFrame(key); err != nil {
		t.Fatal(err)
	}
	if _, err := sd.DecodeFrame(p); err != nil {
		t.Fatal(err)
	}
	sd.Reset()
	if _, err := sd.DecodeFrame(p); err == nil {
		t.Error("P frame decoded after reset")
	}
}

func TestStreamConstructorValidation(t *testing.T) {
	if _, err := NewIntraStreamEncoder(9); err == nil {
		t.Error("quant 9 accepted")
	}
	if _, err := NewInterStreamEncoder(2, 0); err == nil {
		t.Error("GOP 0 accepted")
	}
	if _, err := NewVideoStreamDecoder(0, 8, 8, 2); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewVideoStreamDecoder(8, 8, 7, 2); err == nil {
		t.Error("unaligned depth accepted")
	}
	if _, err := NewVideoStreamDecoder(8, 8, 8, 9); err == nil {
		t.Error("quant 9 accepted by decoder")
	}
}

func TestDropFrames(t *testing.T) {
	v := smoothVideo(30, 16, 12)
	sc := ScalableCodec.(*Scalable)
	e, err := sc.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	half, err := DropFrames(e, 2)
	if err != nil {
		t.Fatal(err)
	}
	if half.NumFrames() != 15 {
		t.Errorf("frames = %d, want 15", half.NumFrames())
	}
	// Rate halves so duration is preserved.
	if half.Duration() != e.Duration() {
		t.Errorf("duration changed: %v -> %v", e.Duration(), half.Duration())
	}
	if half.Size() >= e.Size() {
		t.Error("dropping frames did not shrink")
	}
	// Decoded frames match the retained originals.
	d, err := sc.Decode(half)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sc.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.NumFrames(); i++ {
		got, _ := d.Frame(i)
		want, _ := full.Frame(2 * i)
		if !got.Equal(want) {
			t.Fatalf("dropped-stream frame %d differs", i)
		}
	}
	// Inter-coded values cannot drop frames (P frames lose references).
	mv, err := MPEG.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DropFrames(mv, 2); err == nil {
		t.Error("frame dropping on inter-coded value accepted")
	}
	// Intra-coded values can.
	jv, err := JPEG.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	jd, err := DropFrames(jv, 3)
	if err != nil {
		t.Fatal(err)
	}
	if jd.NumFrames() != 10 {
		t.Errorf("intra drop frames = %d", jd.NumFrames())
	}
	if _, err := DropFrames(e, 0); err == nil {
		t.Error("keepEvery 0 accepted")
	}
	if _, err := DropFrames(e, 1); err != nil {
		t.Error("keepEvery 1 should be identity")
	}
}
