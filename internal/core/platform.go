package core

import (
	"fmt"

	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/sched"
)

// PlatformConfig sizes a default platform.
type PlatformConfig struct {
	Disks         int              // number of magnetic disks (default 2)
	DiskCapacity  int64            // bytes per disk (default 2 GB)
	DiskBandwidth media.DataRate   // per-disk transfer rate (default 20 MB/s)
	JukeboxDiscs  int              // analog videodisc count (default 4; negative disables)
	LinkBandwidth media.DataRate   // client link capacity (default 12 MB/s)
	LinkLatency   avtime.WorldTime // propagation latency (default 2 ms)
	LinkJitter    avtime.WorldTime // jitter bound (default 1 ms)
	Seed          int64            // jitter seed
}

func (c *PlatformConfig) fill() {
	if c.Disks <= 0 {
		c.Disks = 2
	}
	if c.DiskCapacity <= 0 {
		c.DiskCapacity = 2_000_000_000
	}
	if c.DiskBandwidth <= 0 {
		c.DiskBandwidth = 20 * media.MBPerSecond
	}
	if c.JukeboxDiscs == 0 {
		c.JukeboxDiscs = 4
	}
	if c.LinkBandwidth <= 0 {
		c.LinkBandwidth = 12 * media.MBPerSecond
	}
	if c.LinkLatency < 0 {
		c.LinkLatency = 0
	} else if c.LinkLatency == 0 {
		c.LinkLatency = 2 * avtime.Millisecond
	}
	if c.LinkJitter == 0 {
		c.LinkJitter = avtime.Millisecond
	}
}

// OpenDefault builds a database on a conventional 1993-style platform:
// magnetic disks, an analog videodisc jukebox, ADC/DAC converters, a DSP,
// a video-effects processor, and one client network link named "lan0".
func OpenDefault(name string, pc PlatformConfig) (*Database, error) {
	pc.fill()
	db, err := Open(Config{
		Name: name,
		Resources: sched.Resources{
			Buffers: 64,
			CPU:     media.DataRate(pc.Disks) * pc.DiskBandwidth * 2,
			Bus:     media.DataRate(pc.Disks) * pc.DiskBandwidth * 4,
		},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < pc.Disks; i++ {
		d := device.NewDisk(fmt.Sprintf("disk%d", i), pc.DiskCapacity, pc.DiskBandwidth, 10*avtime.Millisecond)
		if err := db.Devices().Register(d); err != nil {
			return nil, err
		}
	}
	if pc.JukeboxDiscs > 0 {
		jb := device.NewJukebox("jukebox0", pc.JukeboxDiscs, 30_000_000_000, 4*media.MBPerSecond, 6*avtime.Second)
		if err := db.Devices().Register(jb); err != nil {
			return nil, err
		}
	}
	units := []struct {
		id   string
		kind device.Kind
		excl bool
	}{
		{"adc0", device.KindADC, true},
		{"dac0", device.KindDAC, true},
		{"dsp0", device.KindDSP, false},
		{"fx0", device.KindEffects, true},
		{"fb0", device.KindFramebuffer, true},
	}
	for _, u := range units {
		if err := db.Devices().Register(device.NewUnit(u.id, u.kind, u.excl)); err != nil {
			return nil, err
		}
	}
	link := netsim.NewLink("lan0", pc.LinkBandwidth, pc.LinkLatency, pc.LinkJitter, pc.Seed)
	if err := db.Network().AddLink(link); err != nil {
		return nil, err
	}
	return db, nil
}
