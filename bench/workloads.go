package main

import "math"

// spec is the frozen size of one workload.  A wave is a fixed amount of
// work — sessions × frames, generated from the seed and the wave index —
// and a run of --seconds s executes round(s / refWaveSec) waves (never
// fewer than minWaves), so for a given seed and --seconds every count
// the program makes in virtual time repeats bit for bit.  refWaveSec was
// measured once on the 2-CPU reference host and is not to be retuned by
// a change that claims a gain.
type spec struct {
	name string
	why  string

	openLoop bool // arrivals follow a schedule in virtual time, not completions
	obsOn    bool // the obs collector is installed

	refWaveSec  float64 // host seconds one wave took on the reference host
	minWaves    int     // run at least this many, however short --seconds is
	tracedWaves int     // waves the traced pass reruns

	sessions      int // clients per wave (open loop: mean arrivals per cycle)
	clips         int // library size
	clipFrames    int // frames per library clip
	width, height int // frame geometry (8 bits deep, 30 Hz)
	browsePerWave int // browse actions in the burst that opens a wave
	catalogExtra  int // catalog objects beyond the library, metadata only
	catalogDays   int // whenBroadcast spreads over this many days

	recordings     int // record_and_catalog: recording sessions per wave
	recordFrames   int // frames each recording captures
	deletesPerWave int // catalog objects deleted when a wave ends

	capacity    int // overload_ramp: full-quality streams the admission budget holds
	cycleFrames int // overload_ramp: pacer frames in one cycle

	lateCapUS int // exact lateness histogram range, microseconds
}

// waves is the number of waves a run of the given length executes.
func (s *spec) waves(seconds float64) int {
	n := int(math.Round(seconds / s.refWaveSec))
	if n < s.minWaves {
		n = s.minWaves
	}
	return n
}

// The four workloads.  Sizes marked "smoke" are what `-smoke` and the
// package tests run: one short wave of tens of sessions.
func specFor(name string, smoke bool) (*spec, bool) {
	var s spec
	switch name {
	case "vod_zipf":
		s = spec{
			name:       name,
			why:        "1000 clients a wave replay 12 raw clips by Zipf(1.1): almost no work per frame, so engine, run sets, executor and the pooled storage read path carry the time; fits the pool",
			refWaveSec: 1.5, minWaves: 2, tracedWaves: 2,
			sessions: 1000, clips: 12, clipFrames: 600, width: 64, height: 48,
			browsePerWave: 64, catalogDays: 12, lateCapUS: 200_000,
		}
		if smoke {
			s.sessions, s.clipFrames, s.browsePerWave = 48, 60, 8
		}
	case "newsroom_decode":
		s = spec{
			name:       name,
			why:        "16 viewers a wave, each alone on its own Newscast: MPEG-sim video decoded at the sink, narration and subtitles in sync; codec and composites carry the time, nothing is shared, bypasses the pool",
			refWaveSec: 0.19, minWaves: 2, tracedWaves: 8,
			sessions: 16, clips: 16, clipFrames: 300, width: 160, height: 120,
			browsePerWave: 16, catalogDays: 12, lateCapUS: 200_000,
		}
		if smoke {
			s.sessions, s.clips, s.clipFrames, s.browsePerWave = 4, 4, 45, 4
		}
	case "record_and_catalog":
		s = spec{
			name:       name,
			why:        "recordings (camera, MPEG-sim encoder, writer) run beside review playbacks and are committed into an 8000-object catalog every wave browses: query, txn, schema, encode and placement load only here",
			refWaveSec: 0.29, minWaves: 2, tracedWaves: 6,
			sessions: 10, clips: 10, width: 160, height: 120,
			recordings: 6, recordFrames: 300, deletesPerWave: 8,
			browsePerWave: 24, catalogExtra: 8000, catalogDays: 365, lateCapUS: 200_000,
		}
		if smoke {
			s.sessions, s.clips, s.recordings, s.recordFrames = 3, 3, 3, 45
			s.browsePerWave, s.catalogExtra, s.deletesPerWave = 4, 300, 2
		}
	case "overload_ramp":
		s = spec{
			name:     name,
			why:      "open loop: arrivals ramp from 0.5x to 2x admission capacity and back on 4 small disks plus a jukebox; tiering, replication, overload control and obs on; the virtual metrics sit off their ceilings",
			openLoop: true, obsOn: true,
			refWaveSec: 0.25, minWaves: 2, tracedWaves: 6,
			clips: 24, clipFrames: 240, width: 64, height: 48,
			capacity: ovlCapacity, cycleFrames: 960,
			browsePerWave: 16, catalogDays: 12, lateCapUS: 400_000,
		}
		s.sessions = s.capacity
		if smoke {
			s.clips, s.clipFrames, s.capacity, s.cycleFrames, s.browsePerWave = 8, 60, 12, 240, 4
			s.sessions = s.capacity
		}
	default:
		return nil, false
	}
	if smoke {
		s.minWaves, s.tracedWaves = 1, 1
	}
	return &s, true
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"vod_zipf", "newsroom_decode", "record_and_catalog", "overload_ramp"}
