package media

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"avdb/internal/avtime"
)

func testVideo(t *testing.T, n int) *VideoValue {
	t.Helper()
	v := NewVideoValue(TypeRawVideo30, 8, 6, 8)
	for i := 0; i < n; i++ {
		f := NewFrame(8, 6, 8)
		for p := range f.Pix {
			f.Pix[p] = byte(i)
		}
		if err := v.AppendFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

func TestKindString(t *testing.T) {
	if KindVideo.String() != "video" || KindAudio.String() != "audio" {
		t.Error("kind names wrong")
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("out-of-range kind name wrong")
	}
}

func TestDataRateString(t *testing.T) {
	cases := []struct {
		r    DataRate
		want string
	}{
		{500, "500B/s"},
		{44100 * 4, "176.40KB/s"},
		{31_104_000, "31.10MB/s"},
		{2 * GBPerSecond, "2.00GB/s"},
	}
	for _, tc := range cases {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", int64(tc.r), got, tc.want)
		}
	}
}

func TestVideoValueBasics(t *testing.T) {
	v := testVideo(t, 90)
	if v.Width() != 8 || v.Height() != 6 || v.Depth() != 8 {
		t.Error("geometry wrong")
	}
	if v.NumFrames() != 90 || v.NumElements() != 90 {
		t.Error("frame count wrong")
	}
	if v.Duration() != 3*avtime.Second {
		t.Errorf("90 frames @30fps duration = %v, want 3s", v.Duration())
	}
	if v.Size() != 90*8*6 {
		t.Errorf("Size = %d", v.Size())
	}
	f, err := v.Frame(10)
	if err != nil || f.Pix[0] != 10 {
		t.Errorf("Frame(10) = %v, %v", f, err)
	}
	if _, err := v.Frame(90); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Frame(90) error = %v", err)
	}
	if got := v.String(); !strings.Contains(got, "90 frames") {
		t.Errorf("String = %q", got)
	}
}

func TestVideoValueElementByWorldTime(t *testing.T) {
	v := testVideo(t, 90)
	e, err := v.Element(avtime.Second) // 1s in = frame 30
	if err != nil {
		t.Fatal(err)
	}
	if e.(*Frame).Pix[0] != 30 {
		t.Errorf("element at 1s is frame %d, want 30", e.(*Frame).Pix[0])
	}
	if _, err := v.Element(5 * avtime.Second); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("element past end error = %v", err)
	}
	if _, err := v.Element(-avtime.Second); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("element before start error = %v", err)
	}
}

func TestVideoValueScaleTranslate(t *testing.T) {
	v := testVideo(t, 90)
	v.Translate(10 * avtime.Second)
	if v.Start() != 10*avtime.Second {
		t.Errorf("Start = %v", v.Start())
	}
	e, err := v.Element(11 * avtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	if e.(*Frame).Pix[0] != 30 {
		t.Errorf("element 1s after translated start = frame %d, want 30", e.(*Frame).Pix[0])
	}
	v.Scale(2) // double speed: whole value now 1.5s
	if v.Duration() != 1500*avtime.Millisecond {
		t.Errorf("duration after 2x = %v, want 1.5s", v.Duration())
	}
	if iv := v.Interval(); iv.Start != 10*avtime.Second || iv.Dur != 1500*avtime.Millisecond {
		t.Errorf("Interval = %v", iv)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Scale(0) did not panic")
			}
		}()
		v.Scale(0)
	}()
}

func TestVideoValueEditing(t *testing.T) {
	v := testVideo(t, 10)
	nf := NewFrame(8, 6, 8)
	nf.Pix[0] = 200
	if err := v.AppendFrame(nf); err != nil {
		t.Fatal(err)
	}
	if f, _ := v.Frame(10); v.NumFrames() != 11 || f.Pix[0] != 200 {
		t.Error("AppendFrame did not take")
	}
	// Geometry mismatches are rejected.
	if err := v.AppendFrame(NewFrame(4, 4, 8)); err == nil {
		t.Error("AppendFrame with wrong geometry succeeded")
	}
}

func TestVideoValueSegmentShares(t *testing.T) {
	v := testVideo(t, 30)
	s, err := v.Segment(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFrames() != 10 {
		t.Errorf("segment frames = %d", s.NumFrames())
	}
	// Shared, not copied: mutating the parent's frame shows in the segment.
	f, _ := v.Frame(10)
	f.Pix[0] = 99
	sf, _ := s.Frame(0)
	if sf.Pix[0] != 99 {
		t.Error("segment does not share frames with parent")
	}
	if _, err := v.Segment(20, 10); err == nil {
		t.Error("reversed segment succeeded")
	}
}

func TestVideoValueCloneEqual(t *testing.T) {
	v := testVideo(t, 5)
	c := testVideo(t, 5)
	if !v.Equal(c) {
		t.Fatal("values built alike not equal")
	}
	f, _ := c.Frame(0)
	f.Pix[0] = 77
	if v.Equal(c) {
		t.Error("values differing in one pixel equal")
	}
	other := testVideo(t, 4)
	if v.Equal(other) {
		t.Error("values with different frame counts equal")
	}
}

// TestFrameKeep: Keep copies a scratch frame, and only a scratch frame;
// the copy is the keeper's, so keeping it again copies nothing.
func TestFrameKeep(t *testing.T) {
	f := NewFrame(4, 3, 8)
	if f.Keep() != f {
		t.Error("Keep copied a frame that is not scratch")
	}
	s := NewScratchFrame(4, 3, 8)
	s.Pix[5] = 9
	k := s.Keep()
	if k == s || !k.Equal(s) {
		t.Fatal("Keep of a scratch frame is not an equal copy")
	}
	s.Pix[5] = 10
	if k.Pix[5] != 9 {
		t.Error("kept frame shares pixels with the scratch frame")
	}
	if k.Keep() != k || s.Clone().scratch {
		t.Error("a copy of a scratch frame is scratch")
	}
}

func TestFramePixelAccess(t *testing.T) {
	f := NewFrame(4, 3, 8)
	f.Set(2, 1, 42)
	if f.At(2, 1) != 42 {
		t.Error("Set/At failed")
	}
	if f.PixelOffset(2, 1) != 1*4+2 {
		t.Error("PixelOffset wrong")
	}
	f24 := NewFrame(4, 3, 24)
	if f24.BytesPerPixel() != 3 || len(f24.Pix) != 4*3*3 {
		t.Error("24-bit frame layout wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-bounds pixel access did not panic")
			}
		}()
		f.At(4, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewFrame with bad depth did not panic")
			}
		}()
		NewFrame(4, 3, 7)
	}()
}

func TestAudioValueBasics(t *testing.T) {
	a := NewAudioValue(TypeCDAudio, 2)
	samples := make([]int16, 44100*2)
	for i := range samples {
		samples[i] = int16(i)
	}
	if err := a.AppendSamples(samples); err != nil {
		t.Fatal(err)
	}
	if a.NumSamples() != 44100 || a.channels != 2 {
		t.Error("audio layout wrong")
	}
	if a.Duration() != avtime.Second {
		t.Errorf("duration = %v, want 1s", a.Duration())
	}
	if a.Size() != 44100*2*2 {
		t.Errorf("Size = %d", a.Size())
	}
	sf, err := a.Sample(100)
	if err != nil || len(sf) != 2 || sf[0] != 200 {
		t.Errorf("Sample(100) = %v, %v", sf, err)
	}
	if err := a.AppendSamples([]int16{1}); err == nil {
		t.Error("odd sample append to stereo value succeeded")
	}
	if _, err := a.Sample(44100); !errors.Is(err, ErrOutOfRange) {
		t.Error("Sample past end succeeded")
	}
	if got := a.String(); !strings.Contains(got, "44100 samples") {
		t.Errorf("String = %q", got)
	}
}

func TestAudioValueWindowsAndSegments(t *testing.T) {
	a := NewAudioValue(TypeVoiceAudio, 1)
	if err := a.AppendSamples([]int16{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	w, err := a.Samples(2, 5)
	if err != nil || len(w) != 3 || w[0] != 2 {
		t.Errorf("Samples(2,5) = %v, %v", w, err)
	}
	if _, err := a.Samples(5, 2); err == nil {
		t.Error("reversed window succeeded")
	}
}

func TestAudioValueElementByWorldTime(t *testing.T) {
	a := NewAudioValue(TypeVoiceAudio, 1) // 8kHz
	if err := a.AppendSamples(make([]int16, 8000)); err != nil {
		t.Fatal(err)
	}
	e, err := a.Element(500 * avtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if e.(SampleFrame).Size() != 2 {
		t.Error("sample frame size wrong")
	}
	if _, err := a.Element(2 * avtime.Second); !errors.Is(err, ErrOutOfRange) {
		t.Error("element past end succeeded")
	}
}

func TestTextStreamCues(t *testing.T) {
	v := NewTextStreamValue(10_000) // 10s extent
	cues := []Cue{
		{At: 1000, Dur: 2000, Text: "hello"},
		{At: 5000, Dur: 1000, Text: "world"},
	}
	for _, c := range cues {
		if err := v.AddCue(c); err != nil {
			t.Fatal(err)
		}
	}
	if len(v.cues) != 2 {
		t.Error("cue count wrong")
	}
	if c, ok := v.CueAt(1500); !ok || c.Text != "hello" {
		t.Errorf("CueAt(1500) = %v, %v", c, ok)
	}
	if _, ok := v.CueAt(4000); ok {
		t.Error("cue found in silence")
	}
	// Overlap rejection, both directions.
	if err := v.AddCue(Cue{At: 2500, Dur: 1000, Text: "x"}); err == nil {
		t.Error("overlapping cue accepted (tail overlap)")
	}
	if err := v.AddCue(Cue{At: 4500, Dur: 1000, Text: "x"}); err == nil {
		t.Error("overlapping cue accepted (head overlap)")
	}
	if err := v.AddCue(Cue{At: 9500, Dur: 1000, Text: "x"}); err == nil {
		t.Error("cue past extent accepted")
	}
	if err := v.AddCue(Cue{At: 100, Dur: 0, Text: "x"}); err == nil {
		t.Error("zero-duration cue accepted")
	}
	// Out-of-order insertion keeps cues sorted.
	if err := v.AddCue(Cue{At: 0, Dur: 500, Text: "first"}); err != nil {
		t.Fatal(err)
	}
	if v.cues[0].Text != "first" {
		t.Error("cues not kept sorted")
	}
}

func TestTextStreamElement(t *testing.T) {
	v := NewTextStreamValue(3000)
	if err := v.AddCue(Cue{At: 1000, Dur: 1000, Text: "mid"}); err != nil {
		t.Fatal(err)
	}
	e, err := v.Element(1500 * avtime.Millisecond)
	if err != nil || e.(Cue).Text != "mid" {
		t.Errorf("Element(1.5s) = %v, %v", e, err)
	}
	e, err = v.Element(100 * avtime.Millisecond)
	if err != nil || e.(Cue).Text != "" {
		t.Errorf("silent Element = %v, %v", e, err)
	}
	if _, err := v.Element(5 * avtime.Second); !errors.Is(err, ErrOutOfRange) {
		t.Error("element past extent succeeded")
	}
	if v.Duration() != 3*avtime.Second {
		t.Errorf("duration = %v", v.Duration())
	}
}

func TestVideoQualityString(t *testing.T) {
	q := VideoQuality{640, 480, 8, 30}
	if q.String() != "640x480x8@30" {
		t.Errorf("String = %q", q.String())
	}
	if q.FrameSize() != 640*480 {
		t.Errorf("FrameSize = %d", q.FrameSize())
	}
	if q.DataRate() != DataRate(640*480*30) {
		t.Errorf("DataRate = %v", q.DataRate())
	}
}

func TestParseVideoQuality(t *testing.T) {
	for _, s := range []string{"640x480x8@30", "640 x 480 x 8 @ 30", "320x240x8@30"} {
		q, err := ParseVideoQuality(s)
		if err != nil {
			t.Errorf("ParseVideoQuality(%q) error: %v", s, err)
			continue
		}
		if !q.Valid() {
			t.Errorf("parsed quality %v invalid", q)
		}
	}
	for _, bad := range []string{"", "640x480@30", "640x480x8", "ax480x8@30", "0x480x8@30", "640x480x7@30",
		// Data rates past int64: 0 B/s, wrapped, or with no room to add.
		"4294967296x4294967296x8@30", "3037000500x3037000500x8@30", "65536x65536x8@2147483647"} {
		if _, err := ParseVideoQuality(bad); err == nil {
			t.Errorf("ParseVideoQuality(%q) succeeded", bad)
		}
	}
}

func TestVideoQualityParseFormatProperty(t *testing.T) {
	f := func(w, h, fps uint8, dRaw uint8) bool {
		q := VideoQuality{int(w) + 1, int(h) + 1, (int(dRaw%4) + 1) * 8, int(fps) + 1}
		back, err := ParseVideoQuality(q.String())
		return err == nil && back == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVideoQualityAtLeast(t *testing.T) {
	hi := VideoQuality{640, 480, 8, 30}
	lo := VideoQuality{320, 240, 8, 30}
	if !hi.AtLeast(lo) || lo.AtLeast(hi) {
		t.Error("AtLeast misordered")
	}
	if !hi.AtLeast(hi) {
		t.Error("AtLeast not reflexive")
	}
}

func TestAudioQuality(t *testing.T) {
	if AudioQualityCD.String() != "CD" || AudioQualityVoice.String() != "voice" {
		t.Error("names wrong")
	}
	rate, ch, depth := AudioQualityCD.Params()
	if rate != avtime.RateCDAudio || ch != 2 || depth != 16 {
		t.Error("CD params wrong")
	}
	if AudioQualityCD.DataRate() != DataRate(44100*2*2) {
		t.Errorf("CD data rate = %v", AudioQualityCD.DataRate())
	}
	if AudioQualityVoice.DataRate() != DataRate(8000) {
		t.Errorf("voice data rate = %v", AudioQualityVoice.DataRate())
	}
	if AudioQualityCD.Type() != TypeCDAudio || AudioQualityUnspecified.Type() != nil {
		t.Error("Type mapping wrong")
	}
	for s, want := range map[string]AudioQuality{
		"voice": AudioQualityVoice, "CD": AudioQualityCD, "fm-quality": AudioQualityFM,
	} {
		if got, err := ParseAudioQuality(s); err != nil || got != want {
			t.Errorf("ParseAudioQuality(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseAudioQuality("8-track"); err == nil {
		t.Error("unknown quality parsed")
	}
}

func TestAudioQualityOrdering(t *testing.T) {
	if !(AudioQualityVoice < AudioQualityFM && AudioQualityFM < AudioQualityCD) {
		t.Error("quality ordering broken")
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"video with audio type": func() { NewVideoValue(TypeCDAudio, 8, 6, 8) },
		"video with bad depth":  func() { NewVideoValue(TypeRawVideo30, 8, 6, 5) },
		"audio with video type": func() { NewAudioValue(TypeRawVideo30, 2) },
		"audio with 0 channels": func() { NewAudioValue(TypeCDAudio, 0) },
		"negative text extent":  func() { NewTextStreamValue(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestElementKindsAndSmallAccessors(t *testing.T) {
	f := NewFrame(2, 2, 8)
	if f.Size() != 4 {
		t.Error("frame size wrong")
	}
	var sf SampleFrame = []int16{1, 2}
	if sf.Size() != 4 {
		t.Error("sample frame wrong")
	}
	b := &AudioBlock{Channels: 2, Samples: []int16{1, 2, 3, 4}}
	if b.Size() != 8 || b.NumFrames() != 2 {
		t.Error("audio block wrong")
	}
	if (&AudioBlock{}).NumFrames() != 0 {
		t.Error("zero block frames wrong")
	}
	c := Cue{Text: "hello"}
	if c.Size() != 5 {
		t.Error("cue wrong")
	}
	typ := TypeCCIRVideo
	if typ.String() != "video/ccir601" {
		t.Error("type String wrong")
	}
	if !(VideoQuality{}).IsZero() || (VideoQuality{Width: 1}).IsZero() {
		t.Error("quality IsZero wrong")
	}
	if (avtime.Rate{}).IsZero() != true {
		t.Error("rate IsZero wrong")
	}
}

func TestAudioBlockAccessor(t *testing.T) {
	a := NewAudioValue(TypeVoiceAudio, 2)
	if err := a.AppendSamples([]int16{0, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	blk, err := a.Block(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Start != 1 || blk.NumFrames() != 2 || blk.Samples[0] != 2 {
		t.Errorf("Block = %+v", blk)
	}
	if _, err := a.Block(3, 1); err == nil {
		t.Error("reversed block accepted")
	}
	if a.NumElements() != 3 {
		t.Error("NumElements wrong")
	}
	if _, err := a.ElementAt(1); err != nil {
		t.Error(err)
	}
	if _, err := a.ElementAt(99); err == nil {
		t.Error("out-of-range ElementAt accepted")
	}
}

func TestVideoValueElementAt(t *testing.T) {
	v := testVideo(t, 3)
	el, err := v.ElementAt(2)
	if err != nil || el.(*Frame).Pix[0] != 2 {
		t.Errorf("ElementAt = %v, %v", el, err)
	}
	if _, err := v.ElementAt(-1); err == nil {
		t.Error("negative ElementAt accepted")
	}
}

func TestTextStreamSizeStringAndCues(t *testing.T) {
	v := NewTextStreamValue(1000)
	if err := v.AddCue(Cue{At: 0, Dur: 100, Text: "abcde"}); err != nil {
		t.Fatal(err)
	}
	if v.Size() != 5 {
		t.Errorf("Size = %d", v.Size())
	}
	if v.String() == "" {
		t.Error("empty String")
	}
	if v.NumElements() != 1000 {
		t.Error("NumElements wrong")
	}
	if _, err := v.ElementAt(-1); err == nil {
		t.Error("negative tick accepted")
	}
}

func TestAudioQualityParamsUnspecified(t *testing.T) {
	r, ch, depth := AudioQualityUnspecified.Params()
	if !r.IsZero() || ch != 0 || depth != 0 {
		t.Error("unspecified params wrong")
	}
	if AudioQualityUnspecified.DataRate() != 0 {
		t.Error("unspecified rate wrong")
	}
	if AudioQuality(99).String() != "AudioQuality(99)" {
		t.Error("out-of-range name wrong")
	}
	rate, ch, depth := AudioQualityFM.Params()
	if rate != avtime.RateFMAudio || ch != 2 || depth != 16 {
		t.Error("FM params wrong")
	}
	if AudioQualityFM.Type() != TypeFMAudio || AudioQualityVoice.Type() != TypeVoiceAudio {
		t.Error("type mapping wrong")
	}
}
