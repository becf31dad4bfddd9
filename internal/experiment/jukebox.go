package experiment

import (
	"fmt"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/core"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/sched"
	"avdb/internal/schema"
	"avdb/internal/storage"
)

// The jukebox experiment: the storage hierarchy's life cycle in one
// deterministic run.  A small library is archived on videodisc — one
// clip per disc, none preloaded — and waves of audience play it back
// to back.  The cold wave pays a platter swap per clip; a hot ramp on
// one clip crosses the promotion threshold, so the store copies it to
// a striped disk-tier placement (the copy priced in virtual time and
// charged to the triggering stream's startup); the next access crosses
// the replication threshold and a second stripe-disjoint copy appears;
// then the audience leaves, popularity decays through its half-life,
// and the sweep demotes the copy — the jukebox keeps the archival
// original throughout.  Every wave reports its virtual wall time and
// platter swaps, so the rendition shows where the hierarchy moved the
// cost: swaps in the cold wave, the copy in the ramp, neither after.
const (
	jbDisks     = 4                 // the disk tier promotion stripes over
	jbClips     = 3                 // library size, one disc each
	jbSwap      = 2 * avtime.Second // carousel swap latency
	jbSeed      = 31
	jbIdle      = 60 * avtime.Second // quiet period before the demotion sweep
	jbPromote   = 2.0
	jbReplicate = 3.0
	jbDemote    = 0.5
	jbHalf      = 10 * avtime.Second
)

// JukeboxWave is one audience wave: which clips played (back to back,
// one session at a time), what it cost, and where the hot clip sat
// afterwards.
type JukeboxWave struct {
	Name      string
	Plays     []int            // clip indices, in play order
	Wall      avtime.WorldTime // virtual time the wave took
	Swaps     int64            // platter swaps during the wave
	Misses    int              // presentation-deadline misses (swaps land here)
	HotTier   string           // the hot clip's tier after the wave
	HotPop    float64          // its decayed popularity
	HotCopies int              // readable copies of the hot clip
}

// JukeboxResult is the full hierarchy life cycle.
type JukeboxResult struct {
	Frames  int
	Policy  storage.TierPolicy
	Waves   []JukeboxWave
	Idle    avtime.WorldTime // quiet time before the sweep
	Demoted int              // values the sweep demoted
	Final   []storage.TierInfo
	Swaps   int64 // platter swaps, whole run
}

// jukeboxPlatform builds the two-tier platform: a disk array for
// promoted copies, the jukebox holding the archival library (clip k on
// disc k+1 — disc 0 starts in the platter, and the cold wave should
// pay a swap for every clip), and one client link.
func jukeboxPlatform(frames int) (*core.Database, []schema.OID, error) {
	frameBytes := int64(clipW * clipH * clipDepth / 8)
	clipBytes := int64(frames) * frameBytes
	db, err := core.Open(core.Config{
		Name: "jukebox",
		Resources: sched.Resources{
			Buffers: 32,
			CPU:     100 * media.MBPerSecond,
			Bus:     100 * media.MBPerSecond,
		},
		Tiering: storage.TierPolicy{
			PromoteAt:   jbPromote,
			DemoteBelow: jbDemote,
			HalfLife:    jbHalf,
			Width:       2,
			Replicas:    storage.ReplicaPolicy{Copies: 2, PromoteAt: jbReplicate},
		},
	})
	if err != nil {
		return nil, nil, err
	}
	diskCap := 2*clipBytes + frameBytes
	for i := 0; i < jbDisks; i++ {
		d := device.NewDisk(fmt.Sprintf("disk%d", i), diskCap, 8*media.MBPerSecond, tenancySeek)
		if err := d.SetGeometry(tenancyTracks, tenancySettle); err != nil {
			return nil, nil, err
		}
		if err := db.Devices().Register(d); err != nil {
			return nil, nil, err
		}
	}
	jb := device.NewJukebox("jukebox0", jbClips+1, 4*clipBytes, 2*media.MBPerSecond, jbSwap)
	if err := db.Devices().Register(jb); err != nil {
		return nil, nil, err
	}
	if err := db.Network().AddLink(netsim.NewLink("lan0", 4*media.MBPerSecond, tenancyLatency, 0, jbSeed)); err != nil {
		return nil, nil, err
	}
	if _, err := db.DefineClass("Reel", "", []schema.AttrDef{
		{Name: "title", Kind: schema.KindString},
		{Name: "video", Kind: schema.KindMedia, MediaKind: media.KindVideo},
	}); err != nil {
		return nil, nil, err
	}
	oids := make([]schema.OID, jbClips)
	for k := 0; k < jbClips; k++ {
		obj, err := db.NewObject("Reel")
		if err != nil {
			return nil, nil, err
		}
		if err := db.SetAttr(obj.OID(), "title", schema.String(fmt.Sprintf("reel-%d", k+1))); err != nil {
			return nil, nil, err
		}
		if err := db.SetAttr(obj.OID(), "video", schema.Media(stdClip(frames, jbSeed+int64(k)))); err != nil {
			return nil, nil, err
		}
		if _, err := db.PlaceMediaOnDisc(obj.OID(), "video", "jukebox0", k+1); err != nil {
			return nil, nil, err
		}
		oids[k] = obj.OID()
	}
	return db, oids, nil
}

// jukeboxPlay runs one full playback of the clip and closes the
// session, so the next access finds the value quiet (promotion and
// demotion are gated on zero open streams).
func jukeboxPlay(db *core.Database, oid schema.OID, client string) (int, error) {
	sess, err := db.Connect(client, "lan0")
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	vr, err := activities.NewVideoReader("reader", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		return 0, err
	}
	win := activities.NewVideoWindow("window", activity.AtApplication, stdQuality(), tenancyTolerance)
	for _, a := range []activity.Activity{vr, win} {
		if err := sess.Install(a, sched.Resources{}); err != nil {
			return 0, err
		}
	}
	if _, err := sess.Connect(vr, "out", win, "in", stdQuality().DataRate()); err != nil {
		return 0, err
	}
	if err := sess.BindValue(oid, "video", vr, "out", media.MBPerSecond); err != nil {
		return 0, err
	}
	pb, err := sess.Start()
	if err != nil {
		return 0, err
	}
	if _, err := pb.Wait(); err != nil {
		return 0, err
	}
	return win.Monitor().Misses(), nil
}

// Jukebox runs the hierarchy life cycle: cold wave, hot ramp,
// replicated replay, then the idle demotion sweep.
func Jukebox(frames int) (*JukeboxResult, error) {
	if frames < 2 {
		return nil, fmt.Errorf("experiment: jukebox needs frames >= 2")
	}
	db, oids, err := jukeboxPlatform(frames)
	if err != nil {
		return nil, fmt.Errorf("experiment: jukebox platform: %w", err)
	}
	jbDev, _ := db.Devices().Get("jukebox0")
	jb := jbDev.(*device.Jukebox)
	res := &JukeboxResult{Frames: frames, Policy: db.Storage().Tiering(), Idle: jbIdle}

	wave := func(name string, plays []int) error {
		startWall, startSwaps := db.Clock().Now(), jb.Swaps()
		misses := 0
		for i, k := range plays {
			m, err := jukeboxPlay(db, oids[k], fmt.Sprintf("%s-%d", name, i+1))
			if err != nil {
				return fmt.Errorf("experiment: jukebox wave %s play %d: %w", name, i+1, err)
			}
			misses += m
		}
		now := db.Clock().Now()
		hot := db.Storage().TierInfo(now)[0]
		res.Waves = append(res.Waves, JukeboxWave{
			Name: name, Plays: plays,
			Wall: now - startWall, Swaps: jb.Swaps() - startSwaps, Misses: misses,
			HotTier: hot.Tier(), HotPop: hot.Popularity, HotCopies: hot.Copies,
		})
		return nil
	}
	// Cold wave: every clip once; each access swaps its disc in.
	if err := wave("cold", []int{0, 1, 2}); err != nil {
		return nil, err
	}
	// Hot ramp on clip 1: the access that crosses PromoteAt pays one
	// last swap (the promotion's archival read) plus the striped write,
	// then the value streams from the disk tier.
	if err := wave("hot ramp", []int{0, 0}); err != nil {
		return nil, err
	}
	// Replay: the second access crosses the replica threshold and adds
	// a stripe-disjoint second copy; no platter involved any more.
	if err := wave("replay", []int{0, 0}); err != nil {
		return nil, err
	}
	// The audience leaves.  After jbIdle of quiet, popularity has
	// decayed through several half-lives and the sweep demotes the disk
	// copy (and its replica); the archival original remains.
	later := db.Clock().Now() + jbIdle
	res.Demoted = db.Storage().SweepTiers(later)
	res.Final = db.Storage().TierInfo(later)
	res.Swaps = jb.Swaps()
	return res, nil
}

// String renders the wave table and the final tier state.
func (r *JukeboxResult) String() string {
	s := fmt.Sprintf("Storage hierarchy: %d archival clips on videodisc, promotion at popularity %.1f\n",
		len(r.Final), r.Policy.PromoteAt)
	s += fmt.Sprintf("(half-life %s), demotion below %.1f, disk copies striped width %d, %d copies of hot values;\n",
		r.Policy.HalfLife, r.Policy.DemoteBelow, r.Policy.Width, r.Policy.Replicas.Copies)
	s += "waves play back to back — swaps and misses show where the hierarchy put the cost\n\n"

	waveRows := make([][]string, 0, len(r.Waves))
	for _, w := range r.Waves {
		plays := ""
		for i, k := range w.Plays {
			if i > 0 {
				plays += "+"
			}
			plays += fmt.Sprintf("reel-%d", k+1)
		}
		waveRows = append(waveRows, []string{
			w.Name, plays, w.Wall.String(), fmt.Sprint(w.Swaps), fmt.Sprint(w.Misses),
			w.HotTier, fmt.Sprintf("%.2f", w.HotPop), fmt.Sprint(w.HotCopies),
		})
	}
	s += table([]string{"wave", "plays", "wall", "swaps", "misses", "reel-1 tier", "pop", "copies"}, waveRows)
	s += fmt.Sprintf("\nafter %s idle the sweep demoted %d value(s); %d swaps total\n\n", r.Idle, r.Demoted, r.Swaps)

	finalRows := make([][]string, 0, len(r.Final))
	for i, ti := range r.Final {
		finalRows = append(finalRows, []string{
			fmt.Sprintf("reel-%d", i+1), ti.Tier(), fmt.Sprintf("%.2f", ti.Popularity),
			fmt.Sprint(ti.Copies), fmt.Sprint(ti.Size),
		})
	}
	s += table([]string{"value", "tier", "pop", "copies", "bytes"}, finalRows)
	return s
}
