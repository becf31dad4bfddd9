package experiment

import (
	"fmt"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/core"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/sched"
	"avdb/internal/schema"
	"avdb/internal/storage"
)

// TestJukeboxLifeCycle holds the storage hierarchy's arc.  Three reels
// are archived one per disc, none loaded, and played back to back in
// waves.  The cold wave pays one platter swap per reel; a hot ramp on
// reel 0 promotes it to a striped disk copy; the replay adds a second
// copy and never touches the carousel; and after a minute of quiet the
// sweep demotes everything back to the archival tier.
func TestJukeboxLifeCycle(t *testing.T) {
	const frames, reels = 90, 3
	db, err := core.Open(core.Config{
		Name:      "jukebox",
		Resources: sched.Resources{Buffers: 32, CPU: 100 * media.MBPerSecond, Bus: 100 * media.MBPerSecond},
		Tiering: storage.TierPolicy{
			PromoteAt:   2,
			DemoteBelow: 0.5,
			HalfLife:    10 * avtime.Second,
			Width:       2,
			Replicas:    storage.ReplicaPolicy{Copies: 2, PromoteAt: 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clipBytes := ablationClip(frames).Size()
	for i := 0; i < 4; i++ {
		d := device.NewDisk(fmt.Sprintf("disk%d", i), 2*clipBytes+clipBytes/frames, 8*media.MBPerSecond, 10*avtime.Millisecond)
		if err := d.SetGeometry(16, avtime.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := db.Devices().Register(d); err != nil {
			t.Fatal(err)
		}
	}
	jb := device.NewJukebox("jukebox0", reels+1, 4*clipBytes, 2*media.MBPerSecond, 2*avtime.Second)
	if err := db.Devices().Register(jb); err != nil {
		t.Fatal(err)
	}
	if err := db.Network().AddLink(netsim.NewLink("lan0", 4*media.MBPerSecond, 2*avtime.Millisecond, 0, 31)); err != nil {
		t.Fatal(err)
	}
	defineClip(t, db)
	oids := make([]schema.OID, reels)
	for k := range oids {
		oids[k] = newClip(t, db, ablationClip(frames))
		// Disc 0 starts in the player, so reel k goes on disc k+1.
		if _, err := db.PlaceMediaOnDisc(oids[k], "videoTrack", "jukebox0", k+1); err != nil {
			t.Fatal(err)
		}
	}

	// wave plays the reels one session at a time — promotion and
	// demotion wait for a value's streams to close — and reports the
	// swaps it cost and reel 0's tier state afterwards.
	wave := func(name string, plays ...int) (int64, storage.TierInfo) {
		t.Helper()
		swaps := jb.Swaps()
		for i, k := range plays {
			st := bindStream(t, db, fmt.Sprintf("%s-%d", name, i), "lan0", oids[k])
			pb, err := st.sess.Start()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pb.Wait(); err != nil {
				t.Fatalf("%s play %d: %v", name, i, err)
			}
			if err := st.sess.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return jb.Swaps() - swaps, db.Storage().TierInfo(db.Clock().Now())[0]
	}
	if swaps, hot := wave("cold", 0, 1, 2); swaps != reels || hot.Tier() != "jukebox" || hot.Copies != 1 {
		t.Errorf("cold wave: %d swaps, reel 0 on %q with %d copies; want one swap per reel and a single archival copy",
			swaps, hot.Tier(), hot.Copies)
	}
	if _, hot := wave("ramp", 0, 0); hot.Tier() != "jukebox+disk" {
		t.Errorf("hot ramp left reel 0 on %q, want it promoted to jukebox+disk", hot.Tier())
	}
	if swaps, hot := wave("replay", 0, 0); swaps != 0 || hot.Copies != 2 {
		t.Errorf("replay: %d swaps and %d copies, want 0 swaps and 2 copies", swaps, hot.Copies)
	}
	later := db.Clock().Now() + 60*avtime.Second
	if n := db.Storage().SweepTiers(later); n != 1 {
		t.Errorf("idle sweep demoted %d values, want 1", n)
	}
	for i, ti := range db.Storage().TierInfo(later) {
		if ti.Tier() != "jukebox" || ti.Copies != 1 {
			t.Errorf("reel %d after the sweep: %q with %d copies, want the archival copy alone", i, ti.Tier(), ti.Copies)
		}
	}
}
