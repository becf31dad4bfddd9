package temporal

import (
	"strings"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/media"
)

// newscastClip builds the paper's Fig. 1 composite: videoTrack spanning
// [t0, t3), the other tracks spanning [t1, t2) inside it.
func newscastClip(t *testing.T) *Composite {
	t.Helper()
	video := media.NewVideoValue(media.TypeRawVideo30, 4, 4, 8)
	for i := 0; i < 120; i++ { // 4s of video: [0, 4s)
		if err := video.AppendFrame(media.NewFrame(4, 4, 8)); err != nil {
			t.Fatal(err)
		}
	}
	english := media.NewAudioValue(media.TypeVoiceAudio, 1)
	if err := english.AppendSamples(make([]int16, 16000)); err != nil { // 2s
		t.Fatal(err)
	}
	english.Translate(avtime.Second) // [1s, 3s)
	french := media.NewAudioValue(media.TypeVoiceAudio, 1)
	if err := french.AppendSamples(make([]int16, 16000)); err != nil {
		t.Fatal(err)
	}
	french.Translate(avtime.Second)
	subs := media.NewTextStreamValue(2000) // 2s of ticks
	if err := subs.AddCue(media.Cue{At: 0, Dur: 900, Text: "good evening"}); err != nil {
		t.Fatal(err)
	}
	subs.Translate(avtime.Second)

	c := NewComposite("Newscast.clip")
	if err := c.Add("videoTrack", video); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("englishTrack", english); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("frenchTrack", french); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("subtitleTrack", subs); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompositeBasics(t *testing.T) {
	c := newscastClip(t)
	if c.Name() != "Newscast.clip" || c.NumTracks() != 4 {
		t.Error("composite shape wrong")
	}
	if _, ok := c.Track("videoTrack"); !ok {
		t.Error("Track lookup failed")
	}
	if _, ok := c.Track("nope"); ok {
		t.Error("missing track found")
	}
	tracks := c.tracks
	if len(tracks) != 4 || tracks[0].Name != "videoTrack" {
		t.Error("track order lost")
	}
	if iv := c.Interval(); iv.Start != 0 || iv.Dur != 4*avtime.Second {
		t.Errorf("hull = %v", iv)
	}
}

func TestCompositeAddValidation(t *testing.T) {
	c := NewComposite("c")
	v := media.NewTextStreamValue(10)
	if err := c.Add("", v); err == nil {
		t.Error("empty name accepted")
	}
	if err := c.Add("t", nil); err == nil {
		t.Error("nil value accepted")
	}
	if err := c.Add("t", v); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("t", v); err == nil {
		t.Error("duplicate track accepted")
	}
}

func TestCompositeTranslate(t *testing.T) {
	c := newscastClip(t)
	c.Translate(10 * avtime.Second)
	if s := c.Interval().Start; s != 10*avtime.Second {
		t.Errorf("Start after translate = %v", s)
	}
	// Internal correlations preserved.
	spec := []Correlation{
		{A: "englishTrack", B: "videoTrack", Rel: avtime.RelDuring},
	}
	if err := c.Verify(spec); err != nil {
		t.Errorf("correlation broken by translate: %v", err)
	}
}

func TestVerifyCorrelations(t *testing.T) {
	c := newscastClip(t)
	good := []Correlation{
		{A: "englishTrack", B: "videoTrack", Rel: avtime.RelDuring},
		{A: "videoTrack", B: "englishTrack", Rel: avtime.RelContains},
		{A: "englishTrack", B: "frenchTrack", Rel: avtime.RelEqual},
		{A: "englishTrack", B: "subtitleTrack", Rel: avtime.RelEqual},
	}
	if err := c.Verify(good); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []Correlation{{A: "videoTrack", B: "englishTrack", Rel: avtime.RelBefore}}
	if err := c.Verify(bad); err == nil {
		t.Error("violated correlation accepted")
	}
	unknown := []Correlation{{A: "nope", B: "videoTrack", Rel: avtime.RelEqual}}
	if err := c.Verify(unknown); err == nil {
		t.Error("unknown track accepted")
	}
	unknownB := []Correlation{{A: "videoTrack", B: "nope", Rel: avtime.RelEqual}}
	if err := c.Verify(unknownB); err == nil {
		t.Error("unknown B track accepted")
	}
	if s := good[0].String(); !strings.Contains(s, "during") {
		t.Errorf("Correlation String = %q", s)
	}
}

func TestTimelineBoundaries(t *testing.T) {
	c := newscastClip(t)
	tl := c.Timeline()
	if len(tl.Entries) != 4 {
		t.Fatal("entries wrong")
	}
	marks := tl.Boundaries()
	// Fig. 1 has four distinct boundaries: t0=0, t1=1s, t2=3s, t3=4s.
	want := []avtime.WorldTime{0, avtime.Second, 3 * avtime.Second, 4 * avtime.Second}
	if len(marks) != len(want) {
		t.Fatalf("boundaries = %v", marks)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Errorf("boundary %d = %v, want %v", i, marks[i], want[i])
		}
	}
}

func TestTimelineASCII(t *testing.T) {
	c := newscastClip(t)
	out := c.Timeline().ASCII(40)
	if !strings.Contains(out, "videoTrack") || !strings.Contains(out, "subtitleTrack") {
		t.Errorf("diagram missing tracks:\n%s", out)
	}
	// The video row is fully shaded; the audio rows shaded in the middle.
	lines := strings.Split(out, "\n")
	var videoRow, englishRow string
	for _, l := range lines {
		if strings.Contains(l, "videoTrack") {
			videoRow = l
		}
		if strings.Contains(l, "englishTrack") {
			englishRow = l
		}
	}
	if strings.Contains(videoRow, ".") {
		t.Errorf("video row should be fully shaded: %q", videoRow)
	}
	if !strings.HasPrefix(strings.TrimSpace(strings.SplitN(englishRow, "|", 2)[1]), ".") {
		t.Errorf("english row should start unshaded: %q", englishRow)
	}
	if !strings.Contains(out, "t0 = 0.000000s") || !strings.Contains(out, "t3 = 4.000000s") {
		t.Errorf("legend missing:\n%s", out)
	}
	// Degenerate cases.
	empty := (&Timeline{Name: "e"}).ASCII(20)
	if !strings.Contains(empty, "(empty)") {
		t.Error("empty timeline rendering wrong")
	}
	tiny := c.Timeline().ASCII(1) // clamped to minimum width
	if tiny == "" {
		t.Error("tiny width produced nothing")
	}
}

func TestTimelineASCIIPointTrack(t *testing.T) {
	// A zero-length value occupies a point; it must still render a mark.
	c := NewComposite("p")
	img := media.NewTextStreamValue(0)
	img.Translate(avtime.Second)
	if err := c.Add("img", img); err != nil {
		t.Fatal(err)
	}
	v := media.NewVideoValue(media.TypeRawVideo30, 2, 2, 8)
	for i := 0; i < 60; i++ {
		if err := v.AppendFrame(media.NewFrame(2, 2, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Add("vid", v); err != nil {
		t.Fatal(err)
	}
	out := c.Timeline().ASCII(20)
	if !strings.Contains(out, "  img  |..........=.........|\n") {
		t.Errorf("point track renders no mark at 1s of 2s:\n%s", out)
	}
}

func TestTimelineASCIIDegenerate(t *testing.T) {
	// A hull of zero length is widened to one microsecond, so columns
	// still divide; the point entry shades the one cell it falls in.
	point := &Timeline{Name: "pt", Entries: []TimelineEntry{{"p", avtime.Interval{Start: 5 * avtime.Second}}}}
	want := "pt  [5.000000s .. 5.000001s]\n" +
		"  p    |=.........|\n" +
		"  time  0          \n" +
		"  t0 = 5.000000s\n"
	if got := point.ASCII(10); got != want {
		t.Errorf("zero-length hull:\n%q\nwant\n%q", got, want)
	}
	// Entries with negative durations fall outside the hull: their
	// columns clamp to [0, width], and a one-column entry clamped to the
	// right edge shades the last column.
	bad := &Timeline{Name: "bad", Entries: []TimelineEntry{
		{"a", avtime.IntervalOf(0, 10*avtime.Second)},
		{"late", avtime.Interval{Start: 20 * avtime.Second, Dur: -5 * avtime.Second}},
		{"early", avtime.Interval{Start: 5 * avtime.Second, Dur: -10 * avtime.Second}},
	}}
	want = "bad  [0.000000s .. 15.000000s]\n" +
		"  a     |======....|\n" +
		"  late  |.........=|\n" +
		"  early |..........|\n" +
		"  time   1  2  3  5 \n" +
		"  t0 = -5.000000s\n  t1 = 0.000000s\n  t2 = 5.000000s\n" +
		"  t3 = 10.000000s\n  t4 = 15.000000s\n  t5 = 20.000000s\n"
	if got := bad.ASCII(10); got != want {
		t.Errorf("clamped columns:\n%q\nwant\n%q", got, want)
	}
	// Hulls whose length times the width overflows int64 still map
	// their columns exactly: a track spanning the hull fills the row.
	for _, long := range []struct {
		dur   avtime.WorldTime
		width int
	}{{1 << 60, 80}, {1 << 62, 10}} {
		tl := &Timeline{Name: "long", Entries: []TimelineEntry{{"a", avtime.IntervalOf(0, long.dur)}}}
		row := "  a    |" + strings.Repeat("=", long.width) + "|\n"
		if got := tl.ASCII(long.width); !strings.Contains(got, row) {
			t.Errorf("%v-long hull at width %d:\n%s\nwant row %q", long.dur, long.width, got, row)
		}
	}
}
