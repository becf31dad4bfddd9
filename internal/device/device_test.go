package device

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/media"
)

func testDisk() *Disk {
	return NewDisk("disk0", 1_000_000, 10*media.MBPerSecond, 10*avtime.Millisecond)
}

func TestKindString(t *testing.T) {
	if KindDisk.String() != "disk" || KindEffects.String() != "effects-processor" {
		t.Error("kind names wrong")
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("out-of-range kind name wrong")
	}
}

func TestDiskAllocation(t *testing.T) {
	d := testDisk()
	if d.Capacity() != 1_000_000 || d.Used() != 0 {
		t.Error("initial accounting wrong")
	}
	if err := d.Allocate(600_000); err != nil {
		t.Fatal(err)
	}
	if err := d.Allocate(600_000); !errors.Is(err, ErrCapacity) {
		t.Errorf("over-allocation error = %v", err)
	}
	d.Free(300_000)
	if d.Used() != 300_000 {
		t.Errorf("Used = %d", d.Used())
	}
	if err := d.Allocate(-1); err == nil {
		t.Error("negative allocation accepted")
	}
	d.Free(1_000_000_000) // over-free clamps
	if d.Used() != 0 {
		t.Errorf("Used after over-free = %d", d.Used())
	}
}

func TestDiskBandwidthReservation(t *testing.T) {
	d := testDisk()
	if d.TotalBandwidth() != 10*media.MBPerSecond {
		t.Error("bandwidth wrong")
	}
	if err := d.Reserve(6 * media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	if err := d.Reserve(6 * media.MBPerSecond); !errors.Is(err, ErrBandwidth) {
		t.Errorf("over-reservation error = %v", err)
	}
	if d.FreeBandwidth() != 4*media.MBPerSecond || d.ReservedBandwidth() != 6*media.MBPerSecond {
		t.Error("free/reserved bandwidth wrong")
	}
	d.Release(6 * media.MBPerSecond)
	if err := d.Reserve(10 * media.MBPerSecond); err != nil {
		t.Errorf("full reservation after release failed: %v", err)
	}
	d.Release(100 * media.MBPerSecond) // over-release clamps
	if d.ReservedBandwidth() != 0 {
		t.Error("over-release did not clamp")
	}
	if err := d.Reserve(-1); err == nil {
		t.Error("negative reservation accepted")
	}
}

func TestDiskTransferTime(t *testing.T) {
	d := testDisk()
	// 1 MB at 10 MB/s = 100ms, plus one 10ms seek.
	if got := d.TransferTime(1_000_000, 1); got != 110*avtime.Millisecond {
		t.Errorf("TransferTime = %v, want 110ms", got)
	}
	if got := d.TransferTime(0, 0); got != 0 {
		t.Errorf("zero transfer = %v", got)
	}
	if got := d.TransferTime(-5, -1); got != 0 {
		t.Errorf("negative transfer = %v", got)
	}
	if d.SeekTime() != 10*avtime.Millisecond {
		t.Error("SeekTime wrong")
	}
}

func TestDiskConcurrentReservations(t *testing.T) {
	d := NewDisk("d", 1000, 100*media.BytePerSecond, 0)
	var wg sync.WaitGroup
	grants := make(chan struct{}, 200)
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d.Reserve(media.BytePerSecond) == nil {
				grants <- struct{}{}
			}
		}()
	}
	wg.Wait()
	close(grants)
	var n int
	for range grants {
		n++
	}
	if n != 100 {
		t.Errorf("granted %d reservations of budget 100", n)
	}
}

func TestJukebox(t *testing.T) {
	j := NewJukebox("jb0", 3, 1000, 1*media.MBPerSecond, 5*avtime.Second)
	if len(j.used) != 3 || j.perDisc != 1000 || !j.DiscLoaded(0) {
		t.Error("jukebox geometry wrong")
	}
	if err := j.Allocate(1, 800); err != nil {
		t.Fatal(err)
	}
	if err := j.Allocate(1, 300); !errors.Is(err, ErrCapacity) {
		t.Errorf("disc over-allocation error = %v", err)
	}
	if err := j.Allocate(5, 1); err == nil {
		t.Error("allocation on missing disc accepted")
	}
	if err := j.Allocate(0, -1); err == nil {
		t.Error("negative allocation accepted")
	}
	j.Free(1, 800)
	j.Free(9, 10) // no-op

	// Reading the loaded disc has no swap; switching pays one.
	dt, err := j.AccessTime(0, 1_000_000)
	if err != nil || dt != avtime.Second {
		t.Errorf("same-disc access = %v, %v", dt, err)
	}
	dt, err = j.AccessTime(2, 0)
	if err != nil || dt != 5*avtime.Second {
		t.Errorf("swap access = %v, %v", dt, err)
	}
	if !j.DiscLoaded(2) || j.DiscLoaded(0) {
		t.Error("swap did not load disc")
	}
	if _, err := j.AccessTime(7, 0); err == nil {
		t.Error("access to missing disc succeeded")
	}
	if !j.Exclusive() {
		t.Error("jukebox should be exclusive")
	}
	if err := j.Reserve(2 * media.MBPerSecond); !errors.Is(err, ErrBandwidth) {
		t.Error("jukebox over-reservation accepted")
	}
	if err := j.Reserve(media.MBPerSecond); err != nil {
		t.Error(err)
	}
	j.Release(media.MBPerSecond)
	if err := j.Reserve(media.MBPerSecond); err != nil {
		t.Errorf("released bandwidth not reusable: %v", err)
	}
}

func TestUnit(t *testing.T) {
	u := NewUnit("fx0", KindEffects, true)
	if u.ID() != "fx0" || u.DeviceKind() != KindEffects || !u.Exclusive() {
		t.Error("unit metadata wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unit with storage kind did not panic")
			}
		}()
		NewUnit("bad", KindDisk, false)
	}()
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"disk zero capacity":  func() { NewDisk("d", 0, 1, 0) },
		"disk zero bandwidth": func() { NewDisk("d", 1, 0, 0) },
		"disk negative seek":  func() { NewDisk("d", 1, 1, -1) },
		"jukebox no discs":    func() { NewJukebox("j", 0, 1, 1, 0) },
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

func TestManagerRegistry(t *testing.T) {
	m := NewManager()
	d := testDisk()
	if err := m.Register(d); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(d); err == nil {
		t.Error("duplicate registration accepted")
	}
	if got, ok := m.Get("disk0"); !ok || got != Device(d) {
		t.Error("Get failed")
	}
	if _, ok := m.Get("nope"); ok {
		t.Error("Get of missing device succeeded")
	}
	if err := m.Register(NewUnit("dac0", KindDAC, true)); err != nil {
		t.Fatal(err)
	}
	if ids := m.List(); len(ids) != 2 || ids[0] != "dac0" {
		t.Errorf("List = %v", ids)
	}
	if ids := m.ListKind(KindDisk); len(ids) != 1 || ids[0] != "disk0" {
		t.Errorf("ListKind = %v", ids)
	}
}

func TestManagerExclusiveAcquisition(t *testing.T) {
	m := NewManager()
	fx := NewUnit("fx0", KindEffects, true)
	disk := testDisk()
	if err := m.Register(fx); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(disk); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire("fx0", "alice"); err != nil {
		t.Fatal(err)
	}
	// Idempotent per owner.
	if err := m.Acquire("fx0", "alice"); err != nil {
		t.Errorf("re-acquire by holder failed: %v", err)
	}
	if err := m.Acquire("fx0", "bob"); !errors.Is(err, ErrHeld) {
		t.Errorf("contended acquire error = %v", err)
	}
	if h, ok := m.Holder("fx0"); !ok || h != "alice" {
		t.Error("Holder wrong")
	}
	// Shared devices acquire without contention.
	if err := m.Acquire("disk0", "bob"); err != nil {
		t.Errorf("shared acquire failed: %v", err)
	}
	// Releasing another owner's devices leaves the holder's.
	m.ReleaseAll("bob")
	if h, ok := m.Holder("fx0"); !ok || h != "alice" {
		t.Error("ReleaseAll of a non-holder released the device")
	}
	m.ReleaseAll("alice")
	if err := m.Acquire("fx0", "bob"); err != nil {
		t.Errorf("acquire after release failed: %v", err)
	}
	// Errors for unknown devices and empty owners.
	if err := m.Acquire("nope", "x"); err == nil {
		t.Error("acquire of missing device accepted")
	}
	if err := m.Acquire("fx0", ""); err == nil {
		t.Error("empty owner accepted")
	}
}

func TestManagerReleaseAll(t *testing.T) {
	m := NewManager()
	for _, id := range []string{"a", "b", "c"} {
		if err := m.Register(NewUnit(id, KindDAC, true)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Acquire("a", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire("b", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire("c", "bob"); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll("alice")
	if _, held := m.Holder("a"); held {
		t.Error("a still held")
	}
	if _, held := m.Holder("b"); held {
		t.Error("b still held")
	}
	if h, held := m.Holder("c"); !held || h != "bob" {
		t.Error("bob's device released")
	}
}

func TestDiskFlatSeekModel(t *testing.T) {
	d := testDisk()
	if got := d.Tracks(); got != 1 {
		t.Fatalf("fresh disk has %d tracks, want 1", got)
	}
	// Under the degenerate single-track model every positioning costs
	// the flat average seek, and every offset is on track 0 — the
	// behavior all pre-geometry accounting was built on.
	if got := d.SeekBetween(0, 0); got != d.SeekTime() {
		t.Fatalf("flat SeekBetween = %v, want %v", got, d.SeekTime())
	}
	if got := d.SeekBetween(3, 7); got != d.SeekTime() {
		t.Fatalf("flat SeekBetween(3,7) = %v, want %v", got, d.SeekTime())
	}
	if got := d.TrackOf(999_999); got != 0 {
		t.Fatalf("flat TrackOf = %d, want 0", got)
	}
}

func TestDiskGeometrySeeks(t *testing.T) {
	d := testDisk() // 1MB, seek 10ms
	settle := avtime.WorldTime(1 * avtime.Millisecond)
	if err := d.SetGeometry(11, settle); err != nil {
		t.Fatal(err)
	}
	if got := d.Tracks(); got != 11 {
		t.Fatalf("Tracks = %d, want 11", got)
	}
	if got := d.SeekBetween(4, 4); got != 0 {
		t.Fatalf("same-track seek = %v, want 0", got)
	}
	// Distance scales linearly from settle to the full average seek.
	adj := d.SeekBetween(4, 5)
	want := settle + (d.SeekTime()-settle)/10
	if adj != want {
		t.Fatalf("adjacent seek = %v, want %v", adj, want)
	}
	if got := d.SeekBetween(0, 10); got != d.SeekTime() {
		t.Fatalf("full-span seek = %v, want %v", got, d.SeekTime())
	}
	if a, b := d.SeekBetween(2, 9), d.SeekBetween(9, 2); a != b {
		t.Fatalf("seek not symmetric: %v vs %v", a, b)
	}
	// TrackOf partitions the capacity; out-of-range offsets clamp.
	if got := d.TrackOf(0); got != 0 {
		t.Fatalf("TrackOf(0) = %d, want 0", got)
	}
	if got := d.TrackOf(d.Capacity() + 5); got != 10 {
		t.Fatalf("TrackOf(beyond) = %d, want 10", got)
	}
	if got := d.TrackOf(-1); got != 0 {
		t.Fatalf("TrackOf(-1) = %d, want 0", got)
	}
}

func TestDiskGeometryValidation(t *testing.T) {
	d := testDisk()
	if err := d.SetGeometry(8, -1); err == nil {
		t.Fatal("negative settle accepted")
	}
	if err := d.SetGeometry(8, d.SeekTime()+1); err == nil {
		t.Fatal("settle above seek accepted")
	}
	// tracks <= 1 restores the flat model.
	if err := d.SetGeometry(16, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.SetGeometry(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := d.SeekBetween(1, 1); got != d.SeekTime() {
		t.Fatalf("flat model not restored: SeekBetween = %v", got)
	}
}

// jamOnce fails the first swap it sees and records every attempt.
type jamOnce struct{ seen *[]Access }

func (h jamOnce) BeforeRead(string, Access, int64) (avtime.WorldTime, error) { return 0, nil }
func (h jamOnce) BeforeSwap(_ string, a Access) error {
	*h.seen = append(*h.seen, a)
	if len(*h.seen) == 1 {
		return errors.New("jam")
	}
	return nil
}

func TestJukeboxSwapJamKeepsPlatter(t *testing.T) {
	j := NewJukebox("jb0", 3, 1000, 1*media.MBPerSecond, 5*avtime.Second)
	var seen []Access
	j.SetFaultHook(jamOnce{seen: &seen})
	dt, err := j.AccessTime(1, 0)
	if err == nil {
		t.Fatal("jammed swap succeeded")
	}
	if dt != 5*avtime.Second {
		t.Errorf("jammed swap cost %v, want the full swap latency", dt)
	}
	// The platter kept its disc and the failed attempt is not a swap.
	if !j.DiscLoaded(0) || j.DiscLoaded(1) || j.Swaps() != 0 {
		t.Errorf("after jam: in player %d, swaps %d; want 0, 0", j.current, j.Swaps())
	}
	// The retry goes through.
	if _, err := j.AccessTime(1, 0); err != nil {
		t.Fatal(err)
	}
	if !j.DiscLoaded(1) || j.Swaps() != 1 {
		t.Errorf("after retry: in player %d, swaps %d; want 1, 1", j.current, j.Swaps())
	}
	// The jammed attempt counts, so the retry is a fresh draw for a hook.
	if want := []Access{{Src: 1, Seq: 0}, {Src: 1, Seq: 1}}; !reflect.DeepEqual(seen, want) {
		t.Errorf("swap attempts seen = %v, want %v", seen, want)
	}
}
