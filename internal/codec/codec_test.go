package codec

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"avdb/internal/avtime"
	"avdb/internal/media"
)

// smoothVideo builds n frames of a horizontal gradient with a small moving
// box — smooth enough to compress, dynamic enough to exercise P frames.
func smoothVideo(n, w, h int) *media.VideoValue {
	v := media.NewVideoValue(media.TypeRawVideo30, w, h, 8)
	for i := 0; i < n; i++ {
		f := media.NewFrame(w, h, 8)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				f.Set(x, y, byte(x*255/w))
			}
		}
		// Moving 4x4 box.
		bx := (i * 2) % (w - 4)
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				f.Set(bx+x, y, 255)
			}
		}
		if err := v.AppendFrame(f); err != nil {
			panic(err)
		}
	}
	return v
}

// staticVideo builds n identical frames.
func staticVideo(n, w, h int) *media.VideoValue {
	v := media.NewVideoValue(media.TypeRawVideo30, w, h, 8)
	for i := 0; i < n; i++ {
		f := media.NewFrame(w, h, 8)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				f.Set(x, y, byte((x+y)%251))
			}
		}
		if err := v.AppendFrame(f); err != nil {
			panic(err)
		}
	}
	return v
}

func maxPixelError(a, b *media.VideoValue) int {
	if a.NumFrames() != b.NumFrames() {
		return 1 << 20
	}
	var worst int
	for i := 0; i < a.NumFrames(); i++ {
		fa, _ := a.Frame(i)
		fb, _ := b.Frame(i)
		for p := range fa.Pix {
			d := int(fa.Pix[p]) - int(fb.Pix[p])
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// rleEncode and rleDecode drive the frame kernels as a bare PackBits
// coder: at quant 0 against an all-zero reference the residual is the
// input itself.
func rleEncode(src []byte) []byte {
	return pack(nil, src, make([]byte, len(src)), nil, 0)
}

func rleDecode(n int, enc []byte) ([]byte, error) {
	dst := make([]byte, n)
	if err := unpack(dst, enc, make([]byte, n), 0); err != nil {
		return nil, err
	}
	return dst, nil
}

func TestRLERoundTripProperty(t *testing.T) {
	f := func(src []byte) bool {
		enc := rleEncode(src)
		dec, err := rleDecode(len(src), enc)
		return err == nil && bytes.Equal(dec, src) && bytes.Equal(enc, refRLEEncode(nil, src))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRLERunsCompress(t *testing.T) {
	src := bytes.Repeat([]byte{7}, 10_000)
	enc := rleEncode(src)
	if len(enc) > len(src)/50 {
		t.Errorf("10k-byte run encoded to %d bytes", len(enc))
	}
	dec, err := rleDecode(len(src), enc)
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatal("run round trip failed")
	}
}

func TestRLEEmptyAndErrors(t *testing.T) {
	if enc := rleEncode(nil); len(enc) != 0 {
		t.Error("empty input encoded to non-empty")
	}
	if _, err := rleDecode(1, []byte{128}); err == nil {
		t.Error("reserved control byte accepted")
	}
	if _, err := rleDecode(6, []byte{5, 1, 2}); err == nil {
		t.Error("truncated literal accepted")
	}
	if _, err := rleDecode(57, []byte{200}); err == nil {
		t.Error("truncated repeat accepted")
	}
	if _, err := rleDecode(3, []byte{253, 9}); err == nil {
		t.Error("run past the frame accepted")
	}
	if _, err := rleDecode(5, []byte{253, 9}); err == nil {
		t.Error("short stream accepted")
	}
}

func TestIntraLosslessAtQ0(t *testing.T) {
	c := &Intra{CodecName: "test-lossless", Typ: TypeJPEGVideo, Quant: 0}
	v := smoothVideo(5, 32, 24)
	e, err := c.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxPixelError(v, d); got != 0 {
		t.Errorf("lossless intra max error = %d", got)
	}
}

func TestIntraErrorBound(t *testing.T) {
	v := smoothVideo(5, 32, 24)
	e, err := JPEG.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	d, err := JPEG.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	// Quant 2 drops 2 bits: error bounded by 2^1 = 2.
	if got := maxPixelError(v, d); got > 2 {
		t.Errorf("intra q=2 max error = %d, want <= 2", got)
	}
	if e.CompressionRatio() < 2 {
		t.Errorf("smooth content compressed only %.2f:1", e.CompressionRatio())
	}
}

func TestIntraQuantValidation(t *testing.T) {
	c := &Intra{CodecName: "bad", Typ: TypeJPEGVideo, Quant: 9}
	if _, err := c.Encode(smoothVideo(1, 8, 8)); err == nil {
		t.Error("quant 9 accepted")
	}
}

func TestDVIRoundTrip(t *testing.T) {
	v := smoothVideo(5, 32, 24)
	e, err := DVICodec.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DVICodec.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	if d.Width() != 32 || d.Height() != 24 {
		t.Errorf("DVI decode geometry %dx%d", d.Width(), d.Height())
	}
	// 2x2 box downsampling of the 8px/255 gradient costs at most ~half a
	// pixel step plus quantization; bound loosely.
	if got := maxPixelError(v, d); got > 24 {
		t.Errorf("DVI max error = %d, want <= 24", got)
	}
	// DVI must compress harder than full-resolution intra.
	je, err := JPEG.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	if e.Size() >= je.Size() {
		t.Errorf("DVI size %d not below JPEG size %d", e.Size(), je.Size())
	}
}

func TestDVIOddGeometry(t *testing.T) {
	v := smoothVideo(2, 33, 25)
	e, err := DVICodec.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DVICodec.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	if d.Width() != 33 || d.Height() != 25 {
		t.Errorf("odd geometry decode %dx%d", d.Width(), d.Height())
	}
}

func TestInterLosslessAtQ0(t *testing.T) {
	c := &Inter{Quant: 0, GOPN: 5}
	v := smoothVideo(17, 32, 24)
	e, err := c.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxPixelError(v, d); got != 0 {
		t.Errorf("lossless inter max error = %d", got)
	}
}

func TestInterKeyFrameStructure(t *testing.T) {
	c := &Inter{Quant: 2, GOPN: 5}
	v := smoothVideo(12, 32, 24)
	e, err := c.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.NumFrames(); i++ {
		f, _ := e.FrameData(i)
		if want := i%5 == 0; f.Key != want {
			t.Errorf("frame %d key = %v, want %v", i, f.Key, want)
		}
	}
}

// TestInterRandomAccessMatchesSequential: a stream decoder that starts at
// the key frame at or before frame i reconstructs i exactly as a decode
// from the start does.
func TestInterRandomAccessMatchesSequential(t *testing.T) {
	c := &Inter{Quant: 2, GOPN: 5}
	v := smoothVideo(13, 32, 24)
	e, err := c.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 4, 5, 7, 12} {
		sd, err := NewVideoStreamDecoder(e.Width(), e.Height(), e.Depth(), e.quant)
		if err != nil {
			t.Fatal(err)
		}
		var rf *media.Frame
		for k := i - i%5; k <= i; k++ {
			ef, _ := e.FrameData(k)
			if rf, err = sd.Decode(ef); err != nil {
				t.Fatal(err)
			}
		}
		sf, _ := d.Frame(i)
		if !rf.Equal(sf) {
			t.Errorf("random-access frame %d differs from sequential decode", i)
		}
	}
}

func TestInterBeatsIntraOnStaticContent(t *testing.T) {
	v := staticVideo(30, 32, 24)
	ie, err := MPEG.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	je, err := JPEG.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	if ie.Size()*2 >= je.Size() {
		t.Errorf("inter %d bytes not well below intra %d bytes on static video", ie.Size(), je.Size())
	}
}

func TestInterGOPValidation(t *testing.T) {
	c := &Inter{Quant: 2, GOPN: 0}
	if _, err := c.Encode(smoothVideo(1, 8, 8)); err == nil {
		t.Error("GOP 0 accepted")
	}
}

func TestScalableFullDecodeLossless(t *testing.T) {
	v := smoothVideo(4, 32, 24)
	sc := ScalableCodec.(*Scalable)
	e, err := sc.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sc.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxPixelError(v, d); got != 0 {
		t.Errorf("full-layer scalable decode max error = %d", got)
	}
}

func TestScalableQualityImprovesWithLayers(t *testing.T) {
	v := smoothVideo(3, 32, 24)
	sc := ScalableCodec.(*Scalable)
	e, err := sc.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	var errs [NumLayers]int
	for k := 1; k <= NumLayers; k++ {
		d, err := sc.DecodeLayers(e, k)
		if err != nil {
			t.Fatal(err)
		}
		errs[k-1] = maxPixelError(v, d)
	}
	if !(errs[0] >= errs[1] && errs[1] >= errs[2] && errs[2] == 0) {
		t.Errorf("layer errors not monotone: %v", errs)
	}
	if errs[0] == 0 {
		t.Error("single-layer decode suspiciously lossless")
	}
}

func TestScalableDropLayers(t *testing.T) {
	v := smoothVideo(3, 32, 24)
	sc := ScalableCodec.(*Scalable)
	e, err := sc.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := DropLayers(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Size() >= e.Size() {
		t.Errorf("dropping layers did not shrink: %d -> %d", e.Size(), dropped.Size())
	}
	if dropped.Layers() != 1 {
		t.Errorf("Layers = %d", dropped.Layers())
	}
	// Base-layer decode of the dropped value matches base-layer decode of
	// the full value.
	d1, err := sc.DecodeLayers(dropped, 1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := sc.DecodeLayers(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Equal(d2) {
		t.Error("base layer differs after DropLayers")
	}
	// Requesting more layers than remain fails.
	if _, err := sc.DecodeLayers(dropped, 2); err == nil {
		t.Error("decode with dropped layer succeeded")
	}
	if _, err := DropLayers(e, 0); err == nil {
		t.Error("DropLayers(0) succeeded")
	}
	if _, err := DropLayers(e, 4); err == nil {
		t.Error("DropLayers(4) succeeded")
	}
	je, _ := JPEG.Encode(v)
	if _, err := DropLayers(je, 1); err == nil {
		t.Error("DropLayers on non-scalable value succeeded")
	}
}

func TestEncodedVideoValueInterface(t *testing.T) {
	v := smoothVideo(60, 16, 12)
	e, err := JPEG.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	var val media.Value = e
	if val.Type() != TypeJPEGVideo {
		t.Error("type wrong")
	}
	if val.Duration() != 2*avtime.Second {
		t.Errorf("duration = %v, want 2s", val.Duration())
	}
	el, err := val.Element(avtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ef := el.(*EncodedFrame); !ef.Key {
		t.Error("encoded element wrong")
	}
	val.Translate(10 * avtime.Second)
	if val.Start() != 10*avtime.Second {
		t.Error("translate failed")
	}
	val.Scale(2)
	if val.Duration() != avtime.Second {
		t.Errorf("scaled duration = %v", val.Duration())
	}
	if _, err := val.ElementAt(-1); !errors.Is(err, media.ErrOutOfRange) {
		t.Error("negative element access succeeded")
	}
	if e.RawSize() != 60*16*12 {
		t.Errorf("RawSize = %d", e.RawSize())
	}
	if e.GOP() != 1 || e.Codec() != "jpeg-sim" || e.Width() != 16 || e.Height() != 12 || e.Depth() != 8 {
		t.Error("metadata wrong")
	}
}

func TestCodecRegistry(t *testing.T) {
	if c, ok := LookupVideoCodec("jpeg-sim"); !ok || c != JPEG {
		t.Error("jpeg-sim not registered")
	}
	if _, ok := LookupVideoCodec("h264"); ok {
		t.Error("h264 should not exist")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate video codec registration did not panic")
			}
		}()
		RegisterVideoCodec(&Intra{CodecName: "jpeg-sim", Typ: TypeJPEGVideo})
	}()
}

func TestScalableStringAndMetadata(t *testing.T) {
	v := smoothVideo(2, 16, 12)
	sc := ScalableCodec.(*Scalable)
	e, err := sc.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	if e.Layers() != NumLayers {
		t.Errorf("Layers = %d", e.Layers())
	}
	if s := e.String(); s == "" {
		t.Error("empty String")
	}
	if s := e.CompressionRatio(); s <= 0 {
		t.Error("ratio not positive")
	}
}

func TestScalableLosslessProperty(t *testing.T) {
	// Property: for any frame contents, the full-layer scalable decode is
	// bit-exact.
	sc := ScalableCodec.(*Scalable)
	f := func(seed int64, wRaw, hRaw uint8) bool {
		w, h := int(wRaw%24)+2, int(hRaw%24)+2
		v := media.NewVideoValue(media.TypeRawVideo30, w, h, 8)
		rng := rand.New(rand.NewSource(seed))
		fr := media.NewFrame(w, h, 8)
		rng.Read(fr.Pix)
		if err := v.AppendFrame(fr); err != nil {
			return false
		}
		e, err := sc.Encode(v)
		if err != nil {
			return false
		}
		d, err := sc.Decode(e)
		if err != nil {
			return false
		}
		return maxPixelError(v, d) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestInterLosslessProperty(t *testing.T) {
	// Property: at quant 0 the inter codec round-trips any content.
	f := func(seed int64, gopRaw uint8) bool {
		c := &Inter{Quant: 0, GOPN: int(gopRaw%7) + 1}
		v := media.NewVideoValue(media.TypeRawVideo30, 12, 10, 8)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 9; i++ {
			fr := media.NewFrame(12, 10, 8)
			rng.Read(fr.Pix)
			if err := v.AppendFrame(fr); err != nil {
				return false
			}
		}
		e, err := c.Encode(v)
		if err != nil {
			return false
		}
		d, err := c.Decode(e)
		if err != nil {
			return false
		}
		return maxPixelError(v, d) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
