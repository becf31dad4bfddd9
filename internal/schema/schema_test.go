package schema

import (
	"math"
	"strings"
	"testing"
	"time"

	"avdb/internal/media"
	"avdb/internal/temporal"
)

// defineNewscast builds the paper's class hierarchy: a MediaObject root,
// SimpleNewscast with a quality-constrained video attribute, and Newscast
// with the four-track clip tcomp.
func defineNewscast(t *testing.T) (*Schema, *Class, *Class) {
	t.Helper()
	s := NewSchema()
	if _, err := s.Define("MediaObject", "", []AttrDef{
		{Name: "title", Kind: KindString},
	}); err != nil {
		t.Fatal(err)
	}
	simple, err := s.Define("SimpleNewscast", "MediaObject", []AttrDef{
		{Name: "broadcastSource", Kind: KindString},
		{Name: "keywords", Kind: KindString},
		{Name: "whenBroadcast", Kind: KindDate},
		{Name: "videoTrack", Kind: KindMedia, MediaKind: media.KindVideo,
			VideoQuality: media.VideoQuality{Width: 4, Height: 4, Depth: 8, FPS: 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	newscast, err := s.Define("Newscast", "MediaObject", []AttrDef{
		{Name: "whenBroadcast", Kind: KindDate},
		{Name: "clip", Kind: KindTComp, Tracks: []TrackDef{
			{Name: "videoTrack", MediaKind: media.KindVideo},
			{Name: "englishTrack", MediaKind: media.KindAudio},
			{Name: "frenchTrack", MediaKind: media.KindAudio},
			{Name: "subtitleTrack", MediaKind: media.KindText},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, simple, newscast
}

func smallVideo(t *testing.T, frames int) *media.VideoValue {
	t.Helper()
	v := media.NewVideoValue(media.TypeRawVideo30, 4, 4, 8)
	for i := 0; i < frames; i++ {
		if err := v.AppendFrame(media.NewFrame(4, 4, 8)); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

func TestSchemaDefineAndLookup(t *testing.T) {
	s, simple, newscast := defineNewscast(t)
	if c, ok := s.Class("SimpleNewscast"); !ok || c != simple {
		t.Error("class lookup failed")
	}
	if _, ok := s.Class("Nope"); ok {
		t.Error("missing class found")
	}
	names := s.Classes()
	if len(names) != 3 || names[0] != "MediaObject" {
		t.Errorf("Classes = %v", names)
	}
	if simple.Super().Name() != "MediaObject" {
		t.Error("super wrong")
	}
	if !simple.IsSubclassOf(simple.Super()) || simple.IsSubclassOf(newscast) {
		t.Error("IsSubclassOf wrong")
	}
	// Inherited attribute resolution.
	if _, ok := simple.Attr("title"); !ok {
		t.Error("inherited attribute not found")
	}
	attrs := simple.Attrs()
	if len(attrs) != 5 || attrs[0].Name != "title" {
		t.Errorf("Attrs = %v", attrs)
	}
	if own := simple.attrs; len(own) != 4 {
		t.Errorf("own attrs = %v", own)
	}
	if simple.String() != "SimpleNewscast" {
		t.Error("String wrong")
	}
}

func TestSchemaDefineErrors(t *testing.T) {
	s, _, _ := defineNewscast(t)
	cases := map[string]struct {
		name, super string
		attrs       []AttrDef
	}{
		"empty name":        {"", "", nil},
		"duplicate class":   {"Newscast", "", nil},
		"unknown super":     {"X", "Nope", nil},
		"shadowed attr":     {"X", "MediaObject", []AttrDef{{Name: "title", Kind: KindString}}},
		"dup attr":          {"X", "", []AttrDef{{Name: "a", Kind: KindInt}, {Name: "a", Kind: KindString}}},
		"unnamed attr":      {"X", "", []AttrDef{{Kind: KindInt}}},
		"tcomp no tracks":   {"X", "", []AttrDef{{Name: "c", Kind: KindTComp}}},
		"tcomp dup track":   {"X", "", []AttrDef{{Name: "c", Kind: KindTComp, Tracks: []TrackDef{{Name: "t", MediaKind: media.KindVideo}, {Name: "t", MediaKind: media.KindAudio}}}}},
		"tcomp empty track": {"X", "", []AttrDef{{Name: "c", Kind: KindTComp, Tracks: []TrackDef{{MediaKind: media.KindVideo}}}}},
		"scalar with track": {"X", "", []AttrDef{{Name: "a", Kind: KindInt, Tracks: []TrackDef{{Name: "t"}}}}},
		"quality on audio":  {"X", "", []AttrDef{{Name: "a", Kind: KindMedia, MediaKind: media.KindAudio, VideoQuality: media.VideoQuality{Width: 1, Height: 1, Depth: 8, FPS: 1}}}},
		"bad quality":       {"X", "", []AttrDef{{Name: "a", Kind: KindMedia, MediaKind: media.KindVideo, VideoQuality: media.VideoQuality{Width: -1, Height: 1, Depth: 8, FPS: 1}}}},
		"audioq on video":   {"X", "", []AttrDef{{Name: "a", Kind: KindMedia, MediaKind: media.KindVideo, AudioQuality: media.AudioQualityCD}}},
		"unknown kind":      {"X", "", []AttrDef{{Name: "a", Kind: AttrKind(99)}}},
	}
	for label, tc := range cases {
		if _, err := s.Define(tc.name, tc.super, tc.attrs); err == nil {
			t.Errorf("%s: Define succeeded", label)
		}
	}
}

func TestObjectSetGet(t *testing.T) {
	_, simple, _ := defineNewscast(t)
	store := NewStore()
	o := store.NewObject(simple)
	when := time.Date(1993, 4, 19, 20, 0, 0, 0, time.UTC)
	if err := o.Set("title", String("60 Minutes")); err != nil {
		t.Fatal(err)
	}
	if err := o.Set("whenBroadcast", Date(when)); err != nil {
		t.Fatal(err)
	}
	if err := o.Set("videoTrack", Media(smallVideo(t, 30))); err != nil {
		t.Fatal(err)
	}
	if d, ok := o.Get("title"); !ok || d.Str() != "60 Minutes" {
		t.Error("Get title failed")
	}
	if _, ok := o.Get("keywords"); ok {
		t.Error("unset attribute returned")
	}
	if got := o.Fields(); len(got) != 3 || got[0] != "title" {
		t.Errorf("Fields = %v", got)
	}
	if !strings.Contains(o.String(), "SimpleNewscast") {
		t.Error("String wrong")
	}
	// Errors.
	if err := o.Set("nope", Int(1)); err == nil {
		t.Error("set of unknown attribute accepted")
	}
	if err := o.Set("title", Int(1)); err == nil {
		t.Error("kind mismatch accepted")
	}
	audio := media.NewAudioValue(media.TypeCDAudio, 2)
	if err := o.Set("videoTrack", Media(audio)); err == nil {
		t.Error("audio value in video attribute accepted")
	}
	if err := o.Set("videoTrack", Media(nil)); err == nil {
		t.Error("nil media accepted")
	}
}

func TestObjectQualityEnforcement(t *testing.T) {
	s := NewSchema()
	c, err := s.Define("HQ", "", []AttrDef{
		{Name: "v", Kind: KindMedia, MediaKind: media.KindVideo,
			VideoQuality: media.VideoQuality{Width: 640, Height: 480, Depth: 8, FPS: 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	o := store.NewObject(c)
	if err := o.Set("v", Media(smallVideo(t, 1))); err == nil {
		t.Error("4x4 value accepted for 640x480 attribute")
	}
}

func TestObjectTCompEnforcement(t *testing.T) {
	_, _, newscast := defineNewscast(t)
	store := NewStore()
	o := store.NewObject(newscast)

	full := temporal.NewComposite("clip")
	if err := full.Add("videoTrack", smallVideo(t, 30)); err != nil {
		t.Fatal(err)
	}
	eng := media.NewAudioValue(media.TypeVoiceAudio, 1)
	if err := eng.AppendSamples(make([]int16, 8000)); err != nil {
		t.Fatal(err)
	}
	if err := full.Add("englishTrack", eng); err != nil {
		t.Fatal(err)
	}
	fre := media.NewAudioValue(media.TypeVoiceAudio, 1)
	if err := fre.AppendSamples(make([]int16, 8000)); err != nil {
		t.Fatal(err)
	}
	if err := full.Add("frenchTrack", fre); err != nil {
		t.Fatal(err)
	}
	if err := full.Add("subtitleTrack", media.NewTextStreamValue(1000)); err != nil {
		t.Fatal(err)
	}
	if err := o.Set("clip", TComp(full)); err != nil {
		t.Fatal(err)
	}

	// Missing track.
	partial := temporal.NewComposite("clip")
	if err := partial.Add("videoTrack", smallVideo(t, 30)); err != nil {
		t.Fatal(err)
	}
	if err := o.Set("clip", TComp(partial)); err == nil {
		t.Error("tcomp with missing tracks accepted")
	}
	// Wrong track kind.
	wrong := temporal.NewComposite("clip")
	for _, name := range []string{"videoTrack", "englishTrack", "frenchTrack", "subtitleTrack"} {
		if err := wrong.Add(name, smallVideo(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Set("clip", TComp(wrong)); err == nil {
		t.Error("tcomp with wrong track kinds accepted")
	}
	if err := o.Set("clip", TComp(nil)); err == nil {
		t.Error("nil tcomp accepted")
	}
}

func TestStoreLifecycle(t *testing.T) {
	_, simple, newscast := defineNewscast(t)
	store := NewStore()
	o1 := store.NewObject(simple)
	o2 := store.NewObject(newscast)
	if o1.OID() == o2.OID() {
		t.Error("OIDs not unique")
	}
	if got, ok := store.Get(o1.OID()); !ok || got != o1 {
		t.Error("Get failed")
	}
	if len(store.objects) != 2 {
		t.Error("count wrong")
	}
	if err := store.Delete(o1.OID()); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(o1.OID()); ok {
		t.Error("deleted object found")
	}
	if err := store.Delete(o1.OID()); err == nil {
		t.Error("double delete accepted")
	}
	if len(store.objects) != 1 {
		t.Error("count after delete wrong")
	}
}

func TestStoreClassExtent(t *testing.T) {
	s, simple, newscast := defineNewscast(t)
	root, _ := s.Class("MediaObject")
	store := NewStore()
	s1 := store.NewObject(simple)
	n1 := store.NewObject(newscast)
	n2 := store.NewObject(newscast)

	if got := directOIDs(store, newscast); len(got) != 2 {
		t.Errorf("direct instances = %v", got)
	}
	if got := directOIDs(store, root); len(got) != 0 {
		t.Errorf("root direct instances = %v", got)
	}
	ext := scanOIDs(store, root)
	if len(ext) != 3 || ext[0] != s1.OID() || ext[2] != n2.OID() {
		t.Errorf("root extent = %v", ext)
	}
	if got := scanOIDs(store, simple); len(got) != 1 || got[0] != n1.OID()-1 {
		t.Errorf("simple extent = %v", got)
	}
}

// directOIDs lists the OIDs of c's direct instances in c's extent order.
func directOIDs(s *Store, c *Class) []OID {
	var out []OID
	for _, o := range s.byClass[c] {
		out = append(out, o.oid)
	}
	return out
}

// scanOIDs lists the OIDs Scan visits for c: its whole extent.
func scanOIDs(s *Store, c *Class) []OID {
	var out []OID
	s.Scan(c, func(o *Object) { out = append(out, o.OID()) })
	return out
}

func TestDatumAccessorsAndEqual(t *testing.T) {
	when := time.Date(1993, 4, 19, 0, 0, 0, 0, time.UTC)
	video := smallVideo(t, 1)
	tc := temporal.NewComposite("x")
	cases := []struct {
		d    Datum
		kind AttrKind
	}{
		{String("a"), KindString},
		{Int(7), KindInt},
		{Float(1.5), KindFloat},
		{Bool(true), KindBool},
		{Date(when), KindDate},
		{Media(video), KindMedia},
		{TComp(tc), KindTComp},
	}
	for _, c := range cases {
		if c.d.Kind() != c.kind {
			t.Errorf("kind = %v, want %v", c.d.Kind(), c.kind)
		}
		if !c.d.Equal(c.d) {
			t.Errorf("%v not equal to itself", c.kind)
		}
		if c.d.Format() == "" {
			t.Errorf("%v Format empty", c.kind)
		}
	}
	if String("a").Equal(Int(0)) {
		t.Error("cross-kind equal")
	}
	if String("a").Str() != "a" || Int(7).IntVal() != 7 || Float(1.5).FloatVal() != 1.5 ||
		!Bool(true).BoolVal() || !Date(when).DateVal().Equal(when) ||
		Media(video).MediaVal() != media.Value(video) || TComp(tc).TCompVal() != tc {
		t.Error("accessors wrong")
	}
}

func TestDatumCompare(t *testing.T) {
	if c, err := String("a").Compare(String("b")); err != nil || c != -1 {
		t.Error("string compare wrong")
	}
	if c, err := Int(5).Compare(Int(5)); err != nil || c != 0 {
		t.Error("int compare wrong")
	}
	if c, err := Float(2).Compare(Float(1)); err != nil || c != 1 {
		t.Error("float compare wrong")
	}
	early := Date(time.Date(1990, 1, 1, 0, 0, 0, 0, time.UTC))
	late := Date(time.Date(1993, 1, 1, 0, 0, 0, 0, time.UTC))
	if c, err := early.Compare(late); err != nil || c != -1 {
		t.Error("date compare wrong")
	}
	if c, err := late.Compare(late); err != nil || c != 0 {
		t.Error("date self-compare wrong")
	}
	if c, err := late.Compare(early); err != nil || c != 1 {
		t.Error("date reverse compare wrong")
	}
	if _, err := Int(1).Compare(String("a")); err == nil {
		t.Error("cross-kind compare accepted")
	}
	if _, err := Bool(true).Compare(Bool(false)); err == nil {
		t.Error("bool compare accepted")
	}
	if _, err := Float(math.NaN()).Compare(Float(1)); err == nil {
		t.Error("NaN ordered")
	}
	if !String("hello world").Contains("lo wo") {
		t.Error("Contains wrong")
	}
	if Int(1).Contains("1") {
		t.Error("Contains on non-string succeeded")
	}
}

func TestAttrKindString(t *testing.T) {
	if KindString.String() != "String" || KindTComp.String() != "TComp" {
		t.Error("names wrong")
	}
	if AttrKind(42).String() != "AttrKind(42)" {
		t.Error("out-of-range name wrong")
	}
	if OID(7).String() != "oid:7" {
		t.Error("OID format wrong")
	}
	if Media(nil).Format() != "<nil media>" || TComp(nil).Format() != "<nil tcomp>" {
		t.Error("nil formats wrong")
	}
}
