package storage

import (
	"fmt"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
)

// BenchmarkIOSchedFlush isolates the scheduler itself: one op is a full
// round — submit every stream's request, then close it — with no stream or
// store plumbing around it.  Arms cross batch width (narrow: 2 streams,
// wide: 16) with disk fan-out (1 or 4) and pool temperature: warm reuses
// one scheduler so the round buffers recycle, cold builds a fresh
// scheduler every op, paying the free-list warmup the sync.Pool
// spillover is meant to absorb.  ReportAllocs pins the warm arms at
// zero.
func BenchmarkIOSchedFlush(b *testing.B) {
	unit := media.TypeRawVideo30.Rate.UnitDuration()
	for _, wide := range []struct {
		name    string
		streams int
	}{{"narrow", 2}, {"wide", 16}} {
		for _, nDisks := range []int{1, 4} {
			for _, pool := range []string{"warm", "cold"} {
				name := fmt.Sprintf("%s-%ddisk-%s", wide.name, nDisks, pool)
				b.Run(name, func(b *testing.B) {
					disks := make([]*device.Disk, nDisks)
					for i := range disks {
						disks[i] = device.NewDisk(fmt.Sprintf("disk%d", i), 64_000_000,
							16*media.MBPerSecond, 10*avtime.Millisecond)
						if err := disks[i].SetGeometry(16, avtime.Millisecond); err != nil {
							b.Fatal(err)
						}
					}
					slots := make([]ioSlot, wide.streams)
					io := newIOSched(nil)
					round := int64(0)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if pool == "cold" {
							io = newIOSched(nil)
						}
						now := avtime.WorldTime(round) * unit
						for s := 0; s < wide.streams; s++ {
							io.submit(ioReq{
								sid: int64(s), chunk: i % 64, bytes: 1200,
								disk: disks[s%nDisks], track: (s*3 + i) % 16,
								rate: media.MBPerSecond, now: now,
								deadline: now + unit + avtime.WorldTime(s%4)*avtime.Millisecond,
								slot:     &slots[s],
							})
						}
						io.closeRound()
						round++
					}
				})
			}
		}
	}
}

// BenchmarkStripedRead measures the host cost of the chunk-read path
// under the three stripeArms configurations TestStripedRoundsBeatDemand
// compares.  Each op is a full pass of 8 streams over their clips — the
// scheduler's map/sort work happens on this path, so the benchmark
// bounds its overhead against the plain demand read.
func BenchmarkStripedRead(b *testing.B) {
	const (
		streams = 8
		frames  = 30
	)
	for _, arm := range stripeArms {
		b.Run(arm.name, func(b *testing.B) {
			st, ss := openStripeArm(b, arm.width, arm.policy, streams, frames)
			unit := media.TypeRawVideo30.Rate.UnitDuration()
			round := int64(0) // monotonic across iterations: rounds never rewind
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for t := 0; t < frames; t++ {
					now := avtime.WorldTime(round) * unit
					for _, s := range ss {
						if _, err := s.ReadChunkTimeAt(t, 1200, round, now, now); err != nil {
							b.Fatal(err)
						}
					}
					st.CloseRound(round)
					round++
				}
			}
		})
	}
}
