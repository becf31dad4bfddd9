package storage

import (
	"errors"
	"strings"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
)

func testRig(t *testing.T) (*device.Manager, *Store) {
	t.Helper()
	dm := device.NewManager()
	for _, d := range []device.Device{
		device.NewDisk("disk0", 1_000_000, 10*media.MBPerSecond, 10*avtime.Millisecond),
		device.NewDisk("disk1", 500_000, 5*media.MBPerSecond, 10*avtime.Millisecond),
		device.NewJukebox("jb0", 3, 10_000_000, 1*media.MBPerSecond, 5*avtime.Second),
		device.NewUnit("dac0", device.KindDAC, true),
	} {
		if err := dm.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	return dm, NewStore(dm)
}

func clip(t testing.TB, frames int) *media.VideoValue {
	t.Helper()
	v := media.NewVideoValue(media.TypeRawVideo30, 40, 30, 8) // 1200 B/frame
	for i := 0; i < frames; i++ {
		if err := v.AppendFrame(media.NewFrame(40, 30, 8)); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

func TestPlaceOnDisk(t *testing.T) {
	dm, st := testRig(t)
	v := clip(t, 100) // 120 KB
	seg, err := st.Place(v, "disk0")
	if err != nil {
		t.Fatal(err)
	}
	if seg.devID != "disk0" || seg.Size() != 120_000 || seg.disc != -1 {
		t.Errorf("segment = %v", seg)
	}
	if seg.Value() != media.Value(v) {
		t.Error("value lost")
	}
	d, _ := dm.Get("disk0")
	if d.(*device.Disk).Used() != 120_000 {
		t.Error("space not accounted")
	}
	if got, ok := st.Get(seg.ID()); !ok || got != seg {
		t.Error("Get failed")
	}
	if len(st.segments) != 1 || st.segments[seg.ID()] != seg {
		t.Errorf("segments = %v", st.segments)
	}
	if !strings.Contains(seg.String(), "disk0") {
		t.Errorf("String = %q", seg.String())
	}
	if seg.ID().String() != "seg:1" {
		t.Errorf("SegID String = %q", seg.ID())
	}
}

func TestPlaceErrors(t *testing.T) {
	_, st := testRig(t)
	v := clip(t, 100)
	if _, err := st.Place(v, "nope"); err == nil {
		t.Error("place on missing device accepted")
	}
	if _, err := st.Place(v, "jb0"); err == nil {
		t.Error("disk place on jukebox accepted")
	}
	if _, err := st.Place(v, "dac0"); err == nil {
		t.Error("place on DAC accepted")
	}
	// Capacity exhaustion.
	big := clip(t, 900) // 1.08 MB > 1 MB
	if _, err := st.Place(big, "disk0"); !errors.Is(err, device.ErrCapacity) {
		t.Errorf("oversize place error = %v", err)
	}
	if _, err := st.PlaceOnDisc(v, "disk0", 0); err == nil {
		t.Error("disc place on disk accepted")
	}
	if _, err := st.PlaceOnDisc(v, "jb0", 99); err == nil {
		t.Error("place on missing disc accepted")
	}
}

func TestPlaceAutoPicksRoomiestQualifyingDisk(t *testing.T) {
	_, st := testRig(t)
	seg, err := st.PlaceAuto(clip(t, 100), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	if seg.devID != "disk0" { // most free space
		t.Errorf("auto placement chose %s", seg.devID)
	}
	// Demand more bandwidth than disk1 has after loading disk0.
	d0, _ := st.devices.Get("disk0")
	if err := d0.(*device.Disk).Reserve(10 * media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	seg2, err := st.PlaceAuto(clip(t, 100), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	if seg2.devID != "disk1" {
		t.Errorf("auto placement chose %s, want disk1 (disk0 saturated)", seg2.devID)
	}
	// Impossible demands fail.
	if _, err := st.PlaceAuto(clip(t, 100), 100*media.MBPerSecond); err == nil {
		t.Error("unsatisfiable auto placement accepted")
	}
}

func TestDeleteFreesSpace(t *testing.T) {
	dm, st := testRig(t)
	seg, err := st.Place(clip(t, 100), "disk0")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(seg.ID()); err != nil {
		t.Fatal(err)
	}
	d, _ := dm.Get("disk0")
	if d.(*device.Disk).Used() != 0 {
		t.Error("delete did not free space")
	}
	if err := st.Delete(seg.ID()); err == nil {
		t.Error("double delete accepted")
	}
	// Jukebox segments free their disc.
	jseg, err := st.PlaceOnDisc(clip(t, 100), "jb0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(jseg.ID()); err != nil {
		t.Fatal(err)
	}
}

func TestMoveCostsFullCopy(t *testing.T) {
	_, st := testRig(t)
	seg, err := st.Place(clip(t, 100), "disk0") // 120 KB
	if err != nil {
		t.Fatal(err)
	}
	dt, err := st.Move(seg.ID(), "disk1")
	if err != nil {
		t.Fatal(err)
	}
	// Read at 10MB/s: 12ms + 10ms seek; write at 5MB/s: 24ms + 10ms seek.
	want := 22*avtime.Millisecond + 34*avtime.Millisecond
	if dt != want {
		t.Errorf("move time = %v, want %v", dt, want)
	}
	if seg.devID != "disk1" {
		t.Error("move did not relocate")
	}
	// Moving to the same device is free.
	dt, err = st.Move(seg.ID(), "disk1")
	if err != nil || dt != 0 {
		t.Errorf("same-device move = %v, %v", dt, err)
	}
	// Source space freed, destination charged.
	d0, _ := st.devices.Get("disk0")
	d1, _ := st.devices.Get("disk1")
	if d0.(*device.Disk).Used() != 0 || d1.(*device.Disk).Used() != 120_000 {
		t.Error("move accounting wrong")
	}
	if _, err := st.Move(SegID(999), "disk0"); err == nil {
		t.Error("move of missing segment accepted")
	}
	if _, err := st.Move(seg.ID(), "jb0"); err == nil {
		t.Error("move to jukebox accepted")
	}
}

func TestMoveFromJukeboxIncludesSwap(t *testing.T) {
	_, st := testRig(t)
	seg, err := st.PlaceOnDisc(clip(t, 100), "jb0", 2)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := st.Move(seg.ID(), "disk0")
	if err != nil {
		t.Fatal(err)
	}
	// Swap 5s + read 120KB at 1MB/s = 120ms; write 12ms + 10ms seek.
	want := 5*avtime.Second + 120*avtime.Millisecond + 22*avtime.Millisecond
	if dt != want {
		t.Errorf("jukebox move time = %v, want %v", dt, want)
	}
	if seg.disc != -1 {
		t.Error("disc not cleared after move")
	}
}

func TestOpenStreamReservesBandwidth(t *testing.T) {
	_, st := testRig(t)
	seg, err := st.Place(clip(t, 100), "disk0")
	if err != nil {
		t.Fatal(err)
	}
	s1, startup, err := st.OpenStream(seg.ID(), 6*media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	if startup != 10*avtime.Millisecond {
		t.Errorf("startup = %v, want one seek", startup)
	}
	// Admission: a second 6MB/s stream exceeds the 10MB/s disk.
	if _, _, err := st.OpenStream(seg.ID(), 6*media.MBPerSecond); !errors.Is(err, device.ErrBandwidth) {
		t.Errorf("over-subscribed stream error = %v", err)
	}
	dt, err := s1.ReadTime(600_000)
	if err != nil {
		t.Fatal(err)
	}
	// 600KB at 6MB/s plus the 10ms startup seek charged to the first
	// read.
	if dt != 110*avtime.Millisecond {
		t.Errorf("first ReadTime = %v", dt)
	}
	// Subsequent reads pay no startup.
	dt, err = s1.ReadTime(600_000)
	if err != nil {
		t.Fatal(err)
	}
	if dt != 100*avtime.Millisecond {
		t.Errorf("second ReadTime = %v", dt)
	}
	if s1.bytes != 1_200_000 || s1.rate != 6*media.MBPerSecond || s1.seg != seg {
		t.Error("stream accounting wrong")
	}
	if _, err := s1.ReadTime(-1); err == nil {
		t.Error("negative read accepted")
	}
	s1.Close()
	s1.Close() // no-op
	if _, err := s1.ReadTime(1); err == nil {
		t.Error("read on closed stream accepted")
	}
	// Bandwidth released.
	if s2, _, err := st.OpenStream(seg.ID(), 10*media.MBPerSecond); err != nil {
		t.Errorf("full-rate stream after close failed: %v", err)
	} else {
		s2.Close()
	}
}

func TestOpenStreamOnJukeboxPaysSwap(t *testing.T) {
	_, st := testRig(t)
	seg, err := st.PlaceOnDisc(clip(t, 100), "jb0", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, startup, err := st.OpenStream(seg.ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if startup != 5*avtime.Second {
		t.Errorf("jukebox startup = %v, want 5s swap", startup)
	}
	// Second open on the now-loaded disc costs nothing... but bandwidth
	// is exhausted (1 MB/s total), so it must fail instead.
	if _, _, err := st.OpenStream(seg.ID(), media.MBPerSecond); err == nil {
		t.Error("over-subscribed jukebox stream accepted")
	}
}

func TestOpenStreamErrors(t *testing.T) {
	_, st := testRig(t)
	seg, err := st.Place(clip(t, 10), "disk0")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.OpenStream(SegID(99), media.MBPerSecond); err == nil {
		t.Error("stream on missing segment accepted")
	}
	if _, _, err := st.OpenStream(seg.ID(), 0); err == nil {
		t.Error("zero-rate stream accepted")
	}
}
