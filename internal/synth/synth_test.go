package synth

import (
	"math"
	"slices"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/codec"
	"avdb/internal/media"
)

func TestVideoPatterns(t *testing.T) {
	for _, p := range []Pattern{PatternGradient, PatternBars, PatternMotion, PatternNoise, PatternChecker} {
		v := Video(media.TypeRawVideo30, p, 32, 24, 8, 5, 1)
		if v.NumFrames() != 5 || v.Width() != 32 || v.Height() != 24 {
			t.Errorf("%v: shape wrong", p)
		}
		// Frames are not all zero.
		f, _ := v.Frame(0)
		var sum int
		for _, px := range f.Pix {
			sum += int(px)
		}
		if sum == 0 {
			t.Errorf("%v: black frame", p)
		}
	}
	if PatternMotion.String() != "motion" || Pattern(99).String() != "Pattern(99)" {
		t.Error("pattern names wrong")
	}
}

func TestVideoDeterministic(t *testing.T) {
	a := Video(media.TypeRawVideo30, PatternNoise, 16, 16, 8, 3, 42)
	b := Video(media.TypeRawVideo30, PatternNoise, 16, 16, 8, 3, 42)
	if !a.Equal(b) {
		t.Error("same seed produced different video")
	}
	c := Video(media.TypeRawVideo30, PatternNoise, 16, 16, 8, 3, 43)
	if a.Equal(c) {
		t.Error("different seeds produced identical noise")
	}
}

func TestVideoDepth24(t *testing.T) {
	v := Video(media.TypeRawVideo30, PatternGradient, 16, 8, 24, 1, 0)
	f, _ := v.Frame(0)
	if len(f.Pix) != 16*8*3 {
		t.Error("24-bit layout wrong")
	}
}

func TestMotionPatternMoves(t *testing.T) {
	v := Video(media.TypeRawVideo30, PatternMotion, 64, 48, 8, 30, 0)
	f0, _ := v.Frame(0)
	f15, _ := v.Frame(15)
	if f0.Equal(f15) {
		t.Error("motion pattern static")
	}
	// Motion content should inter-code much better than noise.
	mv, _ := codec.MPEG.Encode(v)
	nv, _ := codec.MPEG.Encode(Video(media.TypeRawVideo30, PatternNoise, 64, 48, 8, 30, 0))
	if mv.Size() >= nv.Size() {
		t.Errorf("motion (%d) not smaller than noise (%d) under inter coding", mv.Size(), nv.Size())
	}
}

func TestSubtitles(t *testing.T) {
	v, err := Subtitles([]string{"line one", "line two", "line three"}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumElements() != 6000 {
		t.Errorf("ticks=%d", v.NumElements())
	}
	for i, line := range []string{"line one", "line two", "line three"} {
		if c, ok := v.CueAt(avtime.ObjectTime(2000*i + 500)); !ok || c.Text != line {
			t.Errorf("CueAt(%d) = %v, %v", 2000*i+500, c, ok)
		}
	}
	if _, ok := v.CueAt(1999); ok {
		t.Error("gap tick has a cue")
	}
	if _, err := Subtitles([]string{"x"}, 1); err == nil {
		t.Error("too-short duration accepted")
	}
}

func TestSpeech(t *testing.T) {
	a, err := Speech(media.AudioQualityVoice, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSamples() != 16000 || a.Size() != 16000*2 { // mono, 16-bit
		t.Errorf("shape: %d samples, %d bytes", a.NumSamples(), a.Size())
	}
	// Deterministic.
	b, _ := Speech(media.AudioQualityVoice, 2, 5)
	sb, _ := b.Samples(0, b.NumSamples())
	if sa, _ := a.Samples(0, a.NumSamples()); !slices.Equal(sa, sb) {
		t.Error("speech not deterministic")
	}
	// Has both sound and silence.
	s, _ := a.Samples(0, a.NumSamples())
	var loud, quiet int
	for _, v := range s {
		if v > 2000 || v < -2000 {
			loud++
		}
		if v == 0 {
			quiet++
		}
	}
	if loud == 0 || quiet == 0 {
		t.Errorf("speech envelope wrong: loud=%d quiet=%d", loud, quiet)
	}
	if _, err := Speech(media.AudioQualityUnspecified, 1, 0); err == nil {
		t.Error("unspecified quality accepted")
	}
}

func TestAudioRejectsInvalidDurations(t *testing.T) {
	// 1e15 s and 1e300 s exceed make's length limit, and one sample over
	// the cap (8000 Hz mono) would take 4 GiB: each must err before any
	// allocation.
	overCap := float64(maxSamples+1) / 8000
	for _, d := range []float64{-1, -1e-9, math.NaN(), math.Inf(1), math.Inf(-1), 1e15, 1e300, overCap} {
		if _, err := Speech(media.AudioQualityVoice, d, 1); err == nil {
			t.Errorf("Speech accepted duration %v", d)
		}
	}
	// Zero is a valid, empty duration.
	if a, err := Speech(media.AudioQualityVoice, 0, 1); err != nil || a.NumSamples() != 0 {
		t.Errorf("Speech(0 s) = %v, %v", a, err)
	}
}
