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

func TestTone(t *testing.T) {
	a, err := Tone(media.AudioQualityCD, 440, 0.5, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSamples() != 22050 || a.Channels() != 2 {
		t.Errorf("shape: %d samples, %d ch", a.NumSamples(), a.Channels())
	}
	// RMS of a sine at amplitude 0.8*30000 is about 24000/sqrt(2).
	s, _ := a.Samples(0, a.NumSamples())
	var sum float64
	for _, v := range s {
		sum += float64(v) * float64(v)
	}
	rms := math.Sqrt(sum / float64(len(s)))
	if math.Abs(rms-24000/math.Sqrt2) > 500 {
		t.Errorf("RMS = %.0f", rms)
	}
	if _, err := Tone(media.AudioQualityUnspecified, 440, 1, 1); err == nil {
		t.Error("unspecified quality accepted")
	}
	if _, err := Tone(media.AudioQualityCD, 440, 1, 2); err == nil {
		t.Error("amplitude 2 accepted")
	}
}

func TestSpeech(t *testing.T) {
	a, err := Speech(media.AudioQualityVoice, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSamples() != 16000 || a.Channels() != 1 {
		t.Errorf("shape: %d samples, %d ch", a.NumSamples(), a.Channels())
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

func TestNoteFreq(t *testing.T) {
	if got := NoteFreq(69); math.Abs(got-440) > 1e-9 {
		t.Errorf("A4 = %v", got)
	}
	if got := NoteFreq(60); math.Abs(got-261.625) > 0.01 {
		t.Errorf("C4 = %v", got)
	}
	if got := NoteFreq(81); math.Abs(got-880) > 1e-9 {
		t.Errorf("A5 = %v", got)
	}
}

func TestJingleAndValidate(t *testing.T) {
	seq := Jingle(3000, 11)
	if seq.DurMS != 3000 || len(seq.Events) == 0 {
		t.Fatal("jingle empty")
	}
	if err := seq.Validate(); err != nil {
		t.Fatal(err)
	}
	// Note-ons and note-offs pair up.
	var on, off int
	for _, e := range seq.Events {
		if e.Velocity > 0 {
			on++
		} else {
			off++
		}
	}
	if on != off {
		t.Errorf("unbalanced events: %d on, %d off", on, off)
	}
	// Deterministic.
	seq2 := Jingle(3000, 11)
	if len(seq2.Events) != len(seq.Events) {
		t.Error("jingle not deterministic")
	}

	bad := &MIDISequence{DurMS: 100, Events: []MIDIEvent{{TickMS: 50, Note: 200, Velocity: 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range note accepted")
	}
	bad = &MIDISequence{DurMS: 100, Events: []MIDIEvent{
		{TickMS: 50, Note: 60, Velocity: 1}, {TickMS: 20, Note: 60, Velocity: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-order events accepted")
	}
	bad = &MIDISequence{DurMS: 100, Events: []MIDIEvent{{TickMS: 500, Note: 60, Velocity: 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("event past end accepted")
	}
}

func TestSynthesize(t *testing.T) {
	seq := &MIDISequence{
		DurMS: 1000,
		Events: []MIDIEvent{
			{TickMS: 0, Note: 69, Velocity: 100},
			{TickMS: 500, Note: 69, Velocity: 0},
		},
	}
	a, err := Synthesize(seq, media.AudioQualityFM)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSamples() != 22050 || a.Type() != media.TypeFMAudio {
		t.Errorf("shape wrong: %v", a)
	}
	s, _ := a.Samples(0, a.NumSamples())
	// Sound during the note, silence after.
	var during, after float64
	for i := 2000; i < 10000; i++ {
		during += math.Abs(float64(s[i*2]))
	}
	for i := 12000; i < 22000; i++ {
		after += math.Abs(float64(s[i*2]))
	}
	if during < 1000*8000 {
		t.Errorf("note too quiet: %v", during/8000)
	}
	if after != 0 {
		t.Errorf("audio after note off: %v", after)
	}
	// A jingle synthesizes end to end.
	if _, err := Synthesize(Jingle(2000, 3), media.AudioQualityCD); err != nil {
		t.Fatal(err)
	}
	// Invalid sequences are rejected.
	bad := &MIDISequence{DurMS: 10, Events: []MIDIEvent{{TickMS: 50, Note: 60, Velocity: 1}}}
	if _, err := Synthesize(bad, media.AudioQualityCD); err == nil {
		t.Error("invalid sequence accepted")
	}
	if _, err := Synthesize(seq, media.AudioQualityUnspecified); err == nil {
		t.Error("unspecified quality accepted")
	}
}

func TestAudioRejectsInvalidDurations(t *testing.T) {
	for _, d := range []float64{-1, -1e-9, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Tone(media.AudioQualityCD, 440, d, 0.5); err == nil {
			t.Errorf("Tone accepted duration %v", d)
		}
		if _, err := Speech(media.AudioQualityVoice, d, 1); err == nil {
			t.Errorf("Speech accepted duration %v", d)
		}
	}
	// Zero is a valid, empty duration.
	if a, err := Tone(media.AudioQualityCD, 440, 0, 0.5); err != nil || a.NumSamples() != 0 {
		t.Errorf("Tone(0 s) = %v, %v", a, err)
	}
	if a, err := Speech(media.AudioQualityVoice, 0, 1); err != nil || a.NumSamples() != 0 {
		t.Errorf("Speech(0 s) = %v, %v", a, err)
	}
	for _, seq := range []*MIDISequence{
		{DurMS: -5},
		{DurMS: -1, Events: []MIDIEvent{{TickMS: -3, Note: 60, Velocity: 1}}},
	} {
		if err := seq.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", seq)
		}
		if _, err := Synthesize(seq, media.AudioQualityFM); err == nil {
			t.Errorf("Synthesize accepted %+v", seq)
		}
	}
	if a, err := Synthesize(&MIDISequence{}, media.AudioQualityFM); err != nil || a.NumSamples() != 0 {
		t.Errorf("Synthesize(empty) = %v, %v", a, err)
	}
}
