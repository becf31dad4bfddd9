package codec

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"avdb/internal/media"
	"avdb/internal/synth"
)

var updateCorpus = flag.Bool("update-corpus", false,
	"rewrite the seed corpus under testdata/fuzz/FuzzStreamDecode")

// kernelGeoms are frame geometries whose byte lengths exercise the word
// loops' tails: 15, 105, 64, 182, 9 and 3 bytes.
var kernelGeoms = [][3]int{{5, 3, 8}, {7, 5, 24}, {16, 4, 8}, {13, 7, 16}, {9, 1, 8}, {3, 1, 8}}

// runStructured returns n bytes made of runs whose lengths crowd the
// coder's edges: the literal/repeat threshold and the 128-byte caps.
func runStructured(rng *rand.Rand, n int) []byte {
	edges := []int{1, 1, 1, 2, 2, 3, 4, 7, 8, 9, 126, 127, 128, 129, 130, 131, 255, 256, 257, 258, 400}
	out := make([]byte, 0, n)
	for len(out) < n {
		v := byte(rng.Intn(4)) // few values, so neighbouring runs sometimes merge
		if rng.Intn(3) == 0 {
			v = byte(rng.Intn(256))
		}
		for k := edges[rng.Intn(len(edges))]; k > 0 && len(out) < n; k-- {
			out = append(out, v)
		}
	}
	return out
}

// pixFor returns pixels whose quantized residual is resid: against ref,
// or with a nil ref against the intra predictor.  The q low bits dropped
// are random.
func pixFor(rng *rand.Rand, resid, ref []byte, q int) []byte {
	pix := make([]byte, len(resid))
	var prev byte
	for i := range pix {
		tq := resid[i] + prev
		if ref != nil {
			tq = resid[i] + ref[i]
		}
		tq &= 0xff >> q
		prev = tq
		pix[i] = tq<<q | byte(rng.Intn(1<<q))
	}
	return pix
}

// checkPack holds pack on one frame to the old quantize → residual →
// PackBits passes, appending behind a byte already in out.  With a nil
// ref it is a key frame, packed with keep nil and with a keep of its
// own.  With a ref it is a predicted frame, packed with each keep a
// caller passes: nil (the scalable enhancement layers), a buffer of its
// own that starts out differing from ref everywhere, and ref itself (the
// stream encoder, which replaces the reference as it reads it; last,
// since it rewrites ref).
func checkPack(t *testing.T, name string, pix, ref []byte, q int) {
	t.Helper()
	tq := refQuantize(pix, q)
	var want []byte
	keeps := [][]byte{nil, make([]byte, len(pix))}
	if ref == nil {
		want = refDeltaRLE(tq)
	} else {
		d := make([]byte, len(tq))
		for i := range d {
			d[i] = tq[i] - ref[i]
			keeps[1][i] = ^ref[i]
		}
		want = refRLEEncode(nil, d)
		keeps = append(keeps, ref)
	}
	for k, keep := range keeps {
		got := pack([]byte{0xee}, pix, ref, keep, q)
		if got[0] != 0xee || !bytes.Equal(got[1:], want) {
			t.Fatalf("%s (q=%d, keep mode %d): pack emitted %d bytes, reference %d, first difference at %d",
				name, q, k, len(got)-1, len(want), firstDiff(got[1:], want))
		}
		if keep != nil && !bytes.Equal(keep, tq) {
			t.Fatalf("%s (q=%d, keep mode %d): kept frame differs from the quantized frame at %d", name, q, k, firstDiff(keep, tq))
		}
	}
}

// TestPackMatchesReference holds pack to the reference (checkPack) on
// run-structured inputs for both predictors, on zero runs starting and
// ending at every offset of a few words — the in-place path starts and
// stops on them — and on runs of one and two bytes that bring a literal
// run to each length around its 128-byte cap.
func TestPackMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 800; trial++ {
		n := 1 + rng.Intn(1500)
		q := rng.Intn(8)
		resid := runStructured(rng, n)
		var ref []byte // key frames on even trials
		if trial%2 == 1 {
			ref = make([]byte, n)
			rng.Read(ref)
			for i := range ref {
				ref[i] &= 0xff >> q
			}
		}
		checkPack(t, fmt.Sprintf("trial %d (n=%d)", trial, n), pixFor(rng, resid, ref, q), ref, q)
	}

	// A zero run over [a, b) in a residual of literal bytes.
	const n = 43
	for a := 0; a <= n; a++ {
		for b := a; b <= n; b++ {
			resid := make([]byte, n)
			for i := range resid {
				if i < a || i >= b {
					resid[i] = byte(1 + i%3)
				}
			}
			for _, q := range []int{0, 3} {
				ref := make([]byte, n)
				rng.Read(ref)
				for i := range ref {
					ref[i] &= 0xff >> q
				}
				checkPack(t, fmt.Sprintf("zero run [%d, %d)", a, b), pixFor(rng, resid, ref, q), ref, q)
			}
		}
	}

	// A repeat run, then lit literal bytes in runs of one and two
	// (lengths cycling through pat), which cross the 128-byte cap when
	// lit > 128, then another repeat run and a few literal bytes more.
	for lit := 120; lit <= 131; lit++ {
		for _, pat := range [][]int{{1}, {2}, {1, 2}, {2, 1}, {2, 2, 1}} {
			resid := bytes.Repeat([]byte{7}, 4)
			for k, left := 0, lit; left > 0; k++ {
				r := min(pat[k%len(pat)], left)
				resid = append(resid, bytes.Repeat([]byte{byte(1 + k%2)}, r)...)
				left -= r
			}
			resid = append(resid, 9, 9, 9, 9, 9, 3, 4, 4, 5)
			for _, key := range []bool{true, false} {
				var ref []byte
				if !key {
					ref = make([]byte, len(resid))
					rng.Read(ref)
					for i := range ref {
						ref[i] &= 0x3f
					}
				}
				for _, skip := range []int{4, 0} { // without the leading repeat run, and with
					name := fmt.Sprintf("literal of %d in runs %v, key %v, from %d", lit, pat, key, skip)
					var r []byte
					if ref != nil {
						r = ref[skip:]
					}
					checkPack(t, name, pixFor(rng, resid[skip:], r, 2), r, 2)
				}
			}
		}
	}
}

// refUnpack is unpack as the old passes it fuses computed it: PackBits
// decode, add to the prediction — refT, the previous frame quantized, or
// with a nil refT the intra predictor — then dequantize into n bytes.
// Its error is the one unpack owes src: that of the first run, in stream
// order, that is malformed or ends past the frame.  The reference
// decoder reports a run past the frame only as a wrong length at the
// end, so a run past the frame is found as the shortest prefix of whole
// runs that decodes to more than n bytes.
func refUnpack(src, refT []byte, n, q int) ([]byte, error) {
	for p := 1; p <= len(src); p++ {
		if d, err := refRLEDecode(nil, src[:p]); err == nil && len(d) > n {
			return nil, fmt.Errorf("codec: RLE stream ran past the frame's %d bytes", n)
		}
	}
	decoded, err := refRLEDecode(nil, src)
	if err != nil {
		return nil, err
	}
	if len(decoded) != n {
		return nil, fmt.Errorf("codec: decoded %d bytes, want %d", len(decoded), n)
	}
	var prev byte
	for i := range decoded {
		if refT == nil {
			prev += decoded[i]
			decoded[i] = prev
		} else {
			decoded[i] += refT[i]
		}
	}
	out := make([]byte, n)
	refDequantizeInto(out, decoded, q)
	return out, nil
}

// checkUnpack holds unpack of src into an n-byte frame to refUnpack:
// the same pixels or the same error.  dst and the reference frame both
// have room past n bytes, so a kernel that writes past the frame shows
// as a wrong result, not a panic.
func checkUnpack(t *testing.T, name string, src, refT []byte, n, q int) {
	t.Helper()
	want, wantErr := refUnpack(src, refT, n, q)
	var pred []byte
	if refT != nil {
		pred = make([]byte, n, n+512) // the previous frame as the fused decoder holds it
		refDequantizeInto(pred, refT, q)
	}
	got := make([]byte, n, n+512)
	err := unpack(got, src, pred, q)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s (n=%d q=%d intra=%v): unpack error %v, reference %v", name, n, q, refT == nil, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s (n=%d q=%d intra=%v): unpack differs from the reference at %d", name, n, q, refT == nil, firstDiff(got, want))
	}
}

// TestUnpackMatchesReference holds unpack to refUnpack for every quant,
// both predictors and lengths around the word loop's tail.  The residuals
// are arbitrary bytes, so quantized sums leave [0, 2^(8-q)) as a corrupt
// stream's do, and so may the reference frame's quantized bytes.  Then
// chains of zero repeat runs, which unpack copies from the reference
// frame as one, end at, short of and past the frame's end, or in a
// truncated or reserved control byte.
func TestUnpackMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 1200; trial++ {
		n := 1 + trial%24
		if trial%3 == 0 {
			n = 1 + rng.Intn(600)
		}
		q := trial % 8
		resid := runStructured(rng, n)
		if trial%4 == 1 {
			rng.Read(resid)
		}
		data := refRLEEncode(nil, resid)
		refT := make([]byte, n) // the previous frame, quantized
		rng.Read(refT)
		if trial%2 == 0 {
			for i := range refT {
				refT[i] &= 0xff >> q
			}
		}
		name := fmt.Sprintf("trial %d", trial)
		checkUnpack(t, name, data, refT, n, q)
		checkUnpack(t, name, data, nil, n, q)
	}

	tails := [][]byte{
		nil,
		{257 - 5},       // truncated repeat run
		{128, 0},        // reserved control byte
		{6, 1, 2},       // truncated literal run
		{257 - 4, 3},    // a non-zero repeat run
		{1, 5, 6},       // a literal run
		{257 - 3, 0, 0}, // a zero repeat run, then a literal run cut short
	}
	for _, lens := range [][]int{{3}, {128, 128}, {5, 128, 3, 77}, {3, 3, 3, 3}, {100, 127, 128}} {
		chain := []byte{1, 9, 9} // a literal run first: the chain starts mid-frame
		total := 2
		for _, l := range lens {
			chain = append(chain, byte(257-l), 0)
			total += l
		}
		for k, tail := range tails {
			src := append(append([]byte(nil), chain...), tail...)
			for n := total - lens[len(lens)-1] - 1; n <= total+8; n++ {
				refT := make([]byte, n)
				rng.Read(refT)
				for _, q := range []int{0, 3} {
					checkUnpack(t, fmt.Sprintf("zero chain %v, tail %d", lens, k), src, refT, n, q)
				}
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestStreamCodecMatchesReference: over synth clips × quant × GOP × odd
// geometries the fused stream coder emits the reference's bytes and
// decodes to the reference's pixels, and so do the batch codecs built on
// it.
func TestStreamCodecMatchesReference(t *testing.T) {
	patterns := []synth.Pattern{synth.PatternGradient, synth.PatternBars, synth.PatternMotion, synth.PatternNoise, synth.PatternChecker}
	geoms := append([][3]int{{40, 30, 8}}, kernelGeoms...)
	for _, g := range geoms {
		for _, pat := range patterns {
			clip := synth.Video(media.TypeRawVideo30, pat, g[0], g[1], g[2], 19, int64(g[0]*31+int(pat)))
			for q := 0; q <= 7; q++ {
				for _, gop := range []int{1, 2, 15} {
					name := fmt.Sprintf("%dx%dx%d/%v/q%d/gop%d", g[0], g[1], g[2], pat, q, gop)
					checkStreamAgainstReference(t, name, clip, q, gop)
				}
			}
		}
	}
}

func checkStreamAgainstReference(t *testing.T, name string, clip *media.VideoValue, q, gop int) {
	t.Helper()
	enc, err := NewInterStreamEncoder(q, gop)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewVideoStreamDecoder(clip.Width(), clip.Height(), clip.Depth(), q)
	if err != nil {
		t.Fatal(err)
	}
	refEnc := &refStreamEncoder{quant: q, gop: gop}
	refDec := &refStreamDecoder{quant: q, width: clip.Width(), height: clip.Height(), depth: clip.Depth()}
	batch, err := (&Inter{Quant: q, GOPN: gop}).Encode(clip)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []*media.Frame
	for i := 0; i < clip.NumFrames(); i++ {
		f, _ := clip.Frame(i)
		ef, err := enc.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		want := refEnc.EncodeFrame(f)
		if ef.Key != want.Key || !bytes.Equal(ef.Data, want.Data) {
			t.Fatalf("%s frame %d: encoded bytes differ from the reference (%d vs %d bytes)", name, i, len(ef.Data), len(want.Data))
		}
		if bf, _ := batch.FrameData(i); bf.Key != want.Key || !bytes.Equal(bf.Data, want.Data) {
			t.Fatalf("%s frame %d: batch encoder differs from the reference", name, i)
		}
		got, err := dec.DecodeFrame(ef)
		if err != nil {
			t.Fatal(err)
		}
		wantPix, err := refDec.DecodeFrame(want)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(wantPix) {
			t.Fatalf("%s frame %d: decoded pixels differ from the reference", name, i)
		}
		decoded = append(decoded, got)
	}
	// Whole-value decode runs the same kernels.
	whole, err := (&Inter{Quant: q, GOPN: gop}).Decode(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, clip.NumFrames() / 2, clip.NumFrames() - 1} {
		if f, _ := whole.Frame(i); !f.Equal(decoded[i]) {
			t.Fatalf("%s: Inter.Decode frame %d differs from the stream decoder", name, i)
		}
	}
	if gop == 1 {
		intra, err := (&Intra{CodecName: "t", Typ: TypeJPEGVideo, Quant: q}).Encode(clip)
		if err != nil {
			t.Fatal(err)
		}
		for i := range decoded {
			ef, _ := intra.FrameData(i)
			bf, _ := batch.FrameData(i)
			if !bytes.Equal(ef.Data, bf.Data) {
				t.Fatalf("%s frame %d: intra encoding differs from the reference", name, i)
			}
			f, err := JPEG.(*Intra).DecodeFrame(intra, i)
			if err != nil || !f.Equal(decoded[i]) {
				t.Fatalf("%s frame %d: intra decode differs from the reference (err %v)", name, i, err)
			}
		}
	}
}

// TestScalableMatchesReference assembles each scalable frame from the
// reference kernels, as Scalable.Encode did before it used pack.
func TestScalableMatchesReference(t *testing.T) {
	for _, g := range [][3]int{{40, 30, 8}, {13, 7, 16}, {7, 5, 24}} {
		clip := synth.Video(media.TypeRawVideo30, synth.PatternMotion, g[0], g[1], g[2], 6, 5)
		for q := 0; q <= 7; q++ {
			c := &Scalable{BaseQuant: q}
			e, err := c.Encode(clip)
			if err != nil {
				t.Fatal(err)
			}
			w, h, bpp := g[0], g[1], g[2]/8
			hw, hh := (w+1)/2, (h+1)/2
			for i := 0; i < clip.NumFrames(); i++ {
				f, _ := clip.Frame(i)
				half := downsample2(f.Pix, w, h, bpp)
				quarter := downsample2(half, hw, hh, bpp)
				reconQ := make([]byte, len(quarter))
				refDequantizeInto(reconQ, refQuantize(quarter, q), q)
				predHalf := make([]byte, len(half))
				upsample2Linear(predHalf, reconQ, hw, hh, bpp)
				predFull := make([]byte, len(f.Pix))
				upsample2Linear(predFull, half, w, h, bpp)
				for k := range half {
					predHalf[k] = half[k] - predHalf[k]
				}
				for k := range f.Pix {
					predFull[k] = f.Pix[k] - predFull[k]
				}
				want := packLayers(refDeltaRLE(refQuantize(quarter, q)), refRLEEncode(nil, predHalf), refRLEEncode(nil, predFull))
				if ef, _ := e.FrameData(i); !bytes.Equal(ef.Data, want) {
					t.Fatalf("%v q%d frame %d: scalable encoding differs from the reference", g, q, i)
				}
				got, err := c.DecodeFrameLayers(e, i, NumLayers)
				if err != nil || !got.Equal(f) {
					t.Fatalf("%v q%d frame %d: full-layer decode not lossless (err %v)", g, q, i, err)
				}
			}
		}
	}
}

// A stream-decode program, the fuzzer's input: a geometry selector, a
// quant, then frames of (flags, length lo, length hi, payload); bit 0 of
// flags marks a key frame.  A payload cut short by the end of the input
// is a frame all the same.
func streamProgram(geom, quant int, frames ...*EncodedFrame) []byte {
	out := []byte{byte(geom), byte(quant)}
	for _, ef := range frames {
		flags := byte(0)
		if ef.Key {
			flags = 1
		}
		out = append(out, flags, byte(len(ef.Data)), byte(len(ef.Data)>>8))
		out = append(out, ef.Data...)
	}
	return out
}

// runStreamProgram decodes a program with the fused decoder and the
// reference side by side: the same frame or an error from both, and after
// an error the fused decoder's state exactly as before it.
func runStreamProgram(t *testing.T, prog []byte) {
	t.Helper()
	if len(prog) < 2 {
		return
	}
	g := kernelGeoms[int(prog[0])%len(kernelGeoms)]
	q := int(prog[1]) % 8
	dec, err := NewVideoStreamDecoder(g[0], g[1], g[2], q)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refStreamDecoder{quant: q, width: g[0], height: g[1], depth: g[2]}
	prog = prog[2:]
	for n := 0; len(prog) >= 3; n++ {
		ef := &EncodedFrame{Key: prog[0]&1 == 1}
		size := int(prog[1]) | int(prog[2])<<8
		prog = prog[3:]
		size = min(size, len(prog))
		ef.Data, prog = prog[:size], prog[size:]

		cur, primed := dec.cur, dec.primed
		var before []byte
		if primed {
			before = append(before, dec.frames[cur].Pix...)
		}
		got, err := dec.Decode(ef)
		want, refErr := ref.DecodeFrame(ef)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("frame %d: fused decoder error %v, reference error %v", n, err, refErr)
		}
		if err != nil {
			if dec.cur != cur || dec.primed != primed || primed && !bytes.Equal(dec.frames[cur].Pix, before) {
				t.Fatalf("frame %d: failed decode (%v) changed the decoder's current frame", n, err)
			}
			continue
		}
		if got != dec.frames[dec.cur] {
			t.Fatalf("frame %d: Decode returned a frame other than the decoder's current one", n)
		}
		if !got.Equal(want) {
			t.Fatalf("frame %d: decoded pixels differ from the reference", n)
		}
	}
}

// streamCorpus returns the seed programs committed under
// testdata/fuzz/FuzzStreamDecode.  Regenerate the files with
//
//	go test -run TestStreamCorpusSeeds -update-corpus ./internal/codec
//
// after changing an encoder.
func streamCorpus() map[string][]byte {
	// A clean GOP-4 stream on the 7×5×24 geometry.
	const geom, quant = 1, 2
	g := kernelGeoms[geom]
	clip := synth.Video(media.TypeRawVideo30, synth.PatternMotion, g[0], g[1], g[2], 6, 3)
	enc := &VideoStreamEncoder{quant: quant, gop: 4}
	var frames []*EncodedFrame
	for i := 0; i < clip.NumFrames(); i++ {
		f, _ := clip.Frame(i)
		frames = append(frames, enc.encode(f.Pix))
	}
	key := frames[0]
	pZero := &EncodedFrame{Data: []byte{257 - 105, 0}} // one zero run: the frame repeats
	return map[string][]byte{
		"clean_gop": streamProgram(geom, quant, frames...),
		// A literal run announcing more bytes than the payload holds, then a good frame.
		"truncated_run":    streamProgram(geom, quant, key, &EncodedFrame{Data: []byte{257 - 100, 0, 9, 1, 2}}, pZero),
		"reserved_control": streamProgram(geom, quant, key, &EncodedFrame{Data: []byte{257 - 100, 0, 128, 1, 2, 3, 4}}, pZero),
		// Runs that fill the frame and keep going, as key and as P frame.
		"overlong_run": streamProgram(geom, quant, key,
			&EncodedFrame{Data: []byte{257 - 100, 1, 257 - 6, 2}}, pZero,
			&EncodedFrame{Key: true, Data: []byte{257 - 105, 0, 0, 7}}, pZero),
		"short_frame":  streamProgram(geom, quant, key, &EncodedFrame{Data: []byte{257 - 104, 3}}, pZero),
		"p_before_key": streamProgram(geom, quant, pZero, key, pZero),
	}
}

// TestStreamCorpusSeeds verifies the committed corpus files stay in sync
// with streamCorpus (and rewrites them under -update-corpus), and runs
// each through the differential harness.
func TestStreamCorpusSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzStreamDecode")
	for name, data := range streamCorpus() {
		runStreamProgram(t, data)
		path := filepath.Join(dir, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("corpus seed %s missing (run with -update-corpus): %v", name, err)
		}
		if string(got) != want {
			t.Errorf("corpus seed %s out of sync with streamCorpus (run with -update-corpus)", name)
		}
	}
}

// TestStreamDecodeErrorsKeepState spells out the contract the corpus
// exercises: each malformed frame is an error, and the frame after it
// decodes as if the malformed one had never arrived.
func TestStreamDecodeErrorsKeepState(t *testing.T) {
	g := kernelGeoms[1]
	n := g[0] * g[1] * g[2] / 8
	key := &EncodedFrame{Key: true, Data: pack(nil, bytes.Repeat([]byte{40, 44, 90}, n/3), nil, nil, 2)}
	bad := map[string][]byte{
		"truncated literal run": {257 - 100, 0, 9, 1, 2},
		"truncated repeat run":  {257 - 100, 0, 200},
		"reserved control byte": {257 - 100, 0, 128, 1},
		"ran past the frame":    {257 - 100, 1, 257 - 6, 2},
		"short of the frame":    {257 - 104, 3},
		"empty":                 {},
	}
	for name, data := range bad {
		for _, asKey := range []bool{false, true} {
			dec, _ := NewVideoStreamDecoder(g[0], g[1], g[2], 2)
			want, err := dec.DecodeFrame(key)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dec.DecodeFrame(&EncodedFrame{Key: asKey, Data: data}); err == nil {
				t.Errorf("%s (key=%v): accepted", name, asKey)
			}
			got, err := dec.DecodeFrame(&EncodedFrame{Data: []byte{257 - 105, 0}})
			if err != nil || !got.Equal(want) {
				t.Errorf("%s (key=%v): the frame after the error is not the last good frame (err %v)", name, asKey, err)
			}
		}
	}
}

// FuzzStreamDecode feeds arbitrary bytes, read as a stream-decode
// program, to the fused decoder and the reference.
func FuzzStreamDecode(f *testing.F) {
	for _, data := range streamCorpus() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runStreamProgram(t, prog) })
}

// motionFrames returns a 160×120 motion clip of the given depth — at 24
// bits the frames of a decoded Newscast viewer, at 8 a recording's camera
// — and its quant-2, GOP-15 encoding.
func motionFrames(tb testing.TB, depth, frames int) (*media.VideoValue, []*EncodedFrame) {
	tb.Helper()
	clip := synth.Video(media.TypeRawVideo30, synth.PatternMotion, 160, 120, depth, frames, 1)
	enc, err := NewInterStreamEncoder(2, 15)
	if err != nil {
		tb.Fatal(err)
	}
	var out []*EncodedFrame
	for i := 0; i < frames; i++ {
		f, _ := clip.Frame(i)
		ef, err := enc.EncodeFrame(f)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, ef)
	}
	return clip, out
}

// TestStreamDecodeAllocs pins the steady state of Decode at nothing — it
// reconstructs into the decoder's two frames — and of DecodeFrame at the
// caller's copy, a Frame and its Pix.
func TestStreamDecodeAllocs(t *testing.T) {
	_, efs := motionFrames(t, 24, 30)
	dec, _ := NewVideoStreamDecoder(160, 120, 24, 2)
	for _, ef := range efs[:2] { // allocate both of the decoder's frames
		if _, err := dec.Decode(ef); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		decode func(*EncodedFrame) (*media.Frame, error)
		max    float64
	}{
		{"Decode", dec.Decode, 0},
		{"DecodeFrame", dec.DecodeFrame, 2},
	} {
		i := 0
		allocs := testing.AllocsPerRun(60, func() {
			if _, err := c.decode(efs[i%len(efs)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs > c.max {
			t.Errorf("%s: %.1f allocs per frame, want <= %.0f", c.name, allocs, c.max)
		}
	}
}

// TestStreamEncodeAllocs pins EncodeFrame at the EncodedFrame and its
// Data.
func TestStreamEncodeAllocs(t *testing.T) {
	clip, _ := motionFrames(t, 24, 30)
	enc, _ := NewInterStreamEncoder(2, 15)
	i := 0
	allocs := testing.AllocsPerRun(60, func() {
		f, _ := clip.Frame(i % clip.NumFrames())
		if _, err := enc.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 2 {
		t.Errorf("EncodeFrame: %.1f allocs per frame, want <= 2", allocs)
	}
}
