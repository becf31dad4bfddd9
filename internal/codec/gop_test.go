package codec

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/synth"
)

// wholeValueCase pairs a codec's whole-value Encode and Decode with the
// serial loops of reference_test.go.
type wholeValueCase struct {
	name      string
	codec     VideoCodec
	refEncode func(*media.VideoValue) (*EncodedVideo, error)
	refDecode func(*EncodedVideo) (*media.VideoValue, error)
}

func wholeValueCases(gop int) []wholeValueCase {
	intra := &Intra{CodecName: "t", Typ: TypeJPEGVideo, Quant: 2}
	dvi := &DVI{Quant: 3}
	inter := &Inter{Quant: 2, GOPN: gop}
	scal := &Scalable{BaseQuant: 1}
	return []wholeValueCase{
		{"intra", intra,
			func(v *media.VideoValue) (*EncodedVideo, error) { return refIntraEncode(intra, v) },
			func(e *EncodedVideo) (*media.VideoValue, error) { return refIntraDecode(intra, e) }},
		{"dvi", dvi,
			func(v *media.VideoValue) (*EncodedVideo, error) { return refDVIEncode(dvi, v) },
			func(e *EncodedVideo) (*media.VideoValue, error) { return refDVIDecode(dvi, e) }},
		{fmt.Sprintf("inter-gop%d", gop), inter,
			func(v *media.VideoValue) (*EncodedVideo, error) { return refInterEncode(inter, v) },
			func(e *EncodedVideo) (*media.VideoValue, error) { return refInterDecode(inter, e) }},
		{"scalable", scal,
			func(v *media.VideoValue) (*EncodedVideo, error) { return refScalableEncode(scal, v) },
			func(e *EncodedVideo) (*media.VideoValue, error) { return refScalableDecodeLayers(scal, e, e.layers) }},
	}
}

// checkEncodedMatch fails unless got and want hold the same frames, byte
// for byte and key flag for key flag, and every frame of got is a window
// that cannot be appended into its neighbour.
func checkEncodedMatch(t *testing.T, name string, got, want *EncodedVideo) {
	t.Helper()
	if got.NumFrames() != want.NumFrames() {
		t.Fatalf("%s: %d frames, reference %d", name, got.NumFrames(), want.NumFrames())
	}
	for i := range want.frames {
		g, w := got.frames[i], want.frames[i]
		if g.Key != w.Key || !bytes.Equal(g.Data, w.Data) {
			t.Fatalf("%s frame %d: encoding differs from the reference (key %v/%v, %d/%d bytes, first difference at %d)",
				name, i, g.Key, w.Key, len(g.Data), len(w.Data), firstDiff(g.Data, w.Data))
		}
		if cap(g.Data) != len(g.Data) {
			t.Fatalf("%s frame %d: Data has capacity %d beyond its %d bytes", name, i, cap(g.Data), len(g.Data))
		}
	}
}

// waitGoroutines fails unless the goroutine count returns to base; a
// worker that has called Done may take a moment to exit.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for wait := 0; runtime.NumGoroutine() > base && wait < 1000; wait++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the codec runs, %d before", n, base)
	}
}

// TestWholeValueCodecMatchesReference holds the GOP-parallel Encode and
// Decode of every video codec to the serial loops they replaced: frame
// counts around the GOP, a GOP wider than 64 frames, corrupt frames in
// two GOPs (the lower one's error wins, as it does front to back), and
// no goroutine left behind.
func TestWholeValueCodecMatchesReference(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, gop := range []int{15, 70} {
		for _, n := range []int{0, 1, gop - 1, gop, gop + 1, 2*gop + 3, 300} {
			clip := synth.Video(media.TypeRawVideo30, synth.Pattern(n%5), 13, 7, 24, n, int64(n))
			for _, c := range wholeValueCases(gop) {
				name := fmt.Sprintf("%s/%d frames", c.name, n)
				got, err := c.codec.Encode(clip)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := c.refEncode(clip)
				if err != nil {
					t.Fatal(err)
				}
				checkEncodedMatch(t, name, got, want)
				gotV, err := c.codec.Decode(got)
				if err != nil {
					t.Fatalf("%s: decode: %v", name, err)
				}
				wantV, err := c.refDecode(want)
				if err != nil {
					t.Fatal(err)
				}
				if !gotV.Equal(wantV) {
					t.Fatalf("%s: decoded pixels differ from the reference", name)
				}
				if s, ok := c.codec.(*Scalable); ok {
					for k := 1; k < NumLayers; k++ {
						gotV, err := s.DecodeLayers(got, k)
						if err != nil {
							t.Fatal(err)
						}
						wantV, err := refScalableDecodeLayers(s, want, k)
						if err != nil || !gotV.Equal(wantV) {
							t.Fatalf("%s: %d-layer decode differs from the reference (err %v)", name, k, err)
						}
					}
				}
			}
		}

		clip := synth.Video(media.TypeRawVideo30, synth.PatternMotion, 13, 7, 24, 300, 3)
		for _, c := range wholeValueCases(gop) {
			e, err := c.codec.Encode(clip)
			if err != nil {
				t.Fatal(err)
			}
			// A frame inside GOP 3 and one inside GOP 1.
			g := e.GOP()
			at3, at1 := 3*g+4%g, g+(g-1)/2
			for _, bad := range [][]int{{at3}, {at3, at1}} {
				corrupt := *e
				corrupt.frames = append([]*EncodedFrame(nil), e.frames...)
				for k, i := range bad {
					data := [][]byte{{257 - 100, 0, 9, 1}, {128, 7}}[k] // truncated literal run; reserved control byte
					corrupt.frames[i] = &EncodedFrame{Data: data, Key: e.frames[i].Key}
				}
				_, err := c.codec.Decode(&corrupt)
				_, refErr := c.refDecode(&corrupt)
				if err == nil || refErr == nil || err.Error() != refErr.Error() {
					t.Fatalf("%s: corrupt frames %v: error %v, reference error %v", c.name, bad, err, refErr)
				}
			}
		}
	}
	// A GOP wider than the value: one GOP, and no GOP-sized scratch.
	clip := synth.Video(media.TypeRawVideo30, synth.PatternBars, 13, 7, 24, 20, 4)
	huge := &Inter{Quant: 2, GOPN: math.MaxInt}
	got, err := huge.Encode(clip)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refInterEncode(huge, clip)
	checkEncodedMatch(t, "inter-gop-maxint", got, want)
	waitGoroutines(t, base)
}

// TestInterEncodeAllocs pins whole-value Inter encoding at O(GOPs)
// allocations, not two a frame: one block a GOP, plus a constant — the
// value's slices and a worker's state, whose scratch grows by doubling
// (27 at 32×24×24).
func TestInterEncodeAllocs(t *testing.T) {
	const frames, gop = 300, 15
	clip := synth.Video(media.TypeRawVideo30, synth.PatternMotion, 32, 24, 24, frames, 1)
	c := &Inter{Quant: 2, GOPN: gop}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := c.Encode(clip); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(frames/gop + 32); allocs > limit {
		t.Errorf("Inter.Encode of %d frames: %.0f allocs, want <= %.0f", frames, allocs, limit)
	}
}

// TestCodecsKeepTimeline: encoding keeps a value's place and speed on
// the world timeline, and decoding restores them.
func TestCodecsKeepTimeline(t *testing.T) {
	clip := synth.Video(media.TypeRawVideo30, synth.PatternMotion, 16, 12, 24, 30, 1)
	clip.Translate(250 * avtime.Millisecond)
	clip.Scale(2)
	for _, c := range []VideoCodec{JPEG, DVICodec, MPEG, ScalableCodec} {
		e, err := c.Encode(clip)
		if err != nil {
			t.Fatal(err)
		}
		if e.Interval() != clip.Interval() || e.ObjectToWorld(7) != clip.ObjectToWorld(7) {
			t.Errorf("%s: encoded value spans %v, source %v", c.Name(), e.Interval(), clip.Interval())
		}
		v, err := c.Decode(e)
		if err != nil {
			t.Fatal(err)
		}
		if v.Transform() != clip.Transform() {
			t.Errorf("%s: decoded transform %+v, source %+v", c.Name(), v.Transform(), clip.Transform())
		}
	}
}

// runPackProgram reads a program — a geometry selector, a quant, a GOP,
// then pixel bytes, the last frame zero-padded — as a clip, and holds
// whole-value Inter encoding, the stream encoder and pack to the
// reference encoder frame by frame.
func runPackProgram(t *testing.T, prog []byte) {
	t.Helper()
	if len(prog) < 3 {
		return
	}
	g := kernelGeoms[int(prog[0])%len(kernelGeoms)]
	q, gop := int(prog[1])%8, 1+int(prog[2])%20
	clip := media.NewVideoValue(media.TypeRawVideo30, g[0], g[1], g[2])
	for pix := prog[3:]; len(pix) > 0; {
		f := media.NewFrame(g[0], g[1], g[2])
		pix = pix[copy(f.Pix, pix):]
		if err := clip.AppendFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := (&Inter{Quant: q, GOPN: gop}).Encode(clip)
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := NewInterStreamEncoder(q, gop)
	ref := &refStreamEncoder{quant: q, gop: gop}
	for i := 0; i < clip.NumFrames(); i++ {
		f, _ := clip.Frame(i)
		want := ref.EncodeFrame(f)
		ef, err := enc.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*EncodedFrame{whole.frames[i], ef} {
			if got.Key != want.Key || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("frame %d (%dx%dx%d q%d gop%d): encoding differs from the reference at byte %d",
					i, g[0], g[1], g[2], q, gop, firstDiff(got.Data, want.Data))
			}
		}
	}
}

// FuzzPackMatchesReference is the encode-side twin of FuzzStreamDecode:
// arbitrary bytes, read as a clip, encode to the reference's bytes.
func FuzzPackMatchesReference(f *testing.F) {
	g := kernelGeoms[1]
	clip := synth.Video(media.TypeRawVideo30, synth.PatternMotion, g[0], g[1], g[2], 6, 3)
	motion := []byte{1, 2, 4}
	for i := 0; i < clip.NumFrames(); i++ {
		fr, _ := clip.Frame(i)
		motion = append(motion, fr.Pix...)
	}
	f.Add(motion)
	f.Add(append([]byte{2, 0, 2}, bytes.Repeat([]byte{7}, 64*3)...))
	f.Add([]byte{5, 7, 1, 0, 255, 3, 3, 3, 3, 9})
	// A static 8-bit GOP: every word of a predicted frame equals its
	// reference, so pack skips it in place.
	still := synth.Video(media.TypeRawVideo30, synth.PatternMotion, 16, 4, 8, 1, 5)
	fr, _ := still.Frame(0)
	f.Add(append([]byte{2, 2, 3}, bytes.Repeat(fr.Pix, 4)...))
	// A gradient key frame: its residual is runs of one and two bytes,
	// which join a literal run inline up to its 128-byte cap.
	gradient := []byte{3, 0, 0}
	for i := 0; i < 13*7*2; i++ {
		gradient = append(gradient, byte(i+i/3))
	}
	f.Add(gradient)
	f.Fuzz(func(t *testing.T, prog []byte) { runPackProgram(t, prog) })
}
