package media

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"avdb/internal/avtime"
)

// VideoQuality is a video quality factor of the paper's form
//
//	w × h × d @ r
//
// "indicating a video resolution of width w and height h pixels, a depth
// of d bits per pixel and a rate of r frames per second" (§4.1).
// Applications speak quality factors; the database maps them to encodings.
type VideoQuality struct {
	Width, Height, Depth int
	FPS                  int
}

// String formats the quality factor exactly as the paper writes it,
// e.g. "640x480x8@30".
func (q VideoQuality) String() string {
	return fmt.Sprintf("%dx%dx%d@%d", q.Width, q.Height, q.Depth, q.FPS)
}

// IsZero reports whether no quality has been specified.
func (q VideoQuality) IsZero() bool { return q == VideoQuality{} }

// Valid reports whether all components are positive, depth is
// byte-aligned, and the bit rate w·h·d·r fits an int64.  The byte rate
// then fits with room to spare, so FrameSize, DataRate and the sums
// admission control takes over them cannot overflow.
func (q VideoQuality) Valid() bool {
	if q.Width <= 0 || q.Height <= 0 || q.Depth <= 0 || q.Depth%8 != 0 || q.FPS <= 0 {
		return false
	}
	bitRate := uint64(1)
	for _, f := range [...]int{q.Width, q.Height, q.Depth, q.FPS} {
		hi, lo := bits.Mul64(bitRate, uint64(f))
		if hi != 0 || lo > math.MaxInt64 {
			return false
		}
		bitRate = lo
	}
	return true
}

// DataRate reports the uncompressed data rate the quality implies, the
// number admission control budgets for raw transport.
func (q VideoQuality) DataRate() DataRate {
	return DataRate(int64(q.Width) * int64(q.Height) * int64(q.Depth) / 8 * int64(q.FPS))
}

// FrameSize reports the byte size of one uncompressed frame.
func (q VideoQuality) FrameSize() int64 {
	return int64(q.Width) * int64(q.Height) * int64(q.Depth) / 8
}

// AtLeast reports whether q meets or exceeds o in every component.  A
// value captured at q can serve a request for o without interpolation
// ("it is also possible to view a value at higher quality ... however
// this does not add information", §4.1).
func (q VideoQuality) AtLeast(o VideoQuality) bool {
	return q.Width >= o.Width && q.Height >= o.Height && q.Depth >= o.Depth && q.FPS >= o.FPS
}

// ParseVideoQuality parses the paper's "w x h x d @ r" notation; spaces
// are tolerated, e.g. "640x480x8@30" or "320 x 240 x 8 @ 30".
func ParseVideoQuality(s string) (VideoQuality, error) {
	clean := strings.ReplaceAll(s, " ", "")
	atParts := strings.Split(clean, "@")
	if len(atParts) != 2 {
		return VideoQuality{}, fmt.Errorf("media: malformed video quality %q: want WxHxD@FPS", s)
	}
	dims := strings.Split(atParts[0], "x")
	if len(dims) != 3 {
		return VideoQuality{}, fmt.Errorf("media: malformed video quality %q: want WxHxD@FPS", s)
	}
	var q VideoQuality
	fields := []*int{&q.Width, &q.Height, &q.Depth, &q.FPS}
	for i, str := range append(dims, atParts[1]) {
		v, err := strconv.Atoi(str)
		if err != nil {
			return VideoQuality{}, fmt.Errorf("media: malformed video quality %q: %v", s, err)
		}
		*fields[i] = v
	}
	if !q.Valid() {
		return VideoQuality{}, fmt.Errorf("media: invalid video quality %q", s)
	}
	return q, nil
}

// AudioQuality is an audio quality factor: the paper's "voice-quality,
// FM-quality, or CD-quality" descriptions.
type AudioQuality int

// The audio quality levels, ordered from lowest to highest.
const (
	AudioQualityUnspecified AudioQuality = iota
	AudioQualityVoice
	AudioQualityFM
	AudioQualityCD
)

var audioQualityNames = [...]string{
	AudioQualityUnspecified: "unspecified",
	AudioQualityVoice:       "voice",
	AudioQualityFM:          "FM",
	AudioQualityCD:          "CD",
}

// String returns the quality's name as written in the paper ("voice",
// "FM", "CD").
func (q AudioQuality) String() string {
	if q < 0 || int(q) >= len(audioQualityNames) {
		return fmt.Sprintf("AudioQuality(%d)", int(q))
	}
	return audioQualityNames[q]
}

// ParseAudioQuality parses an audio quality name, case-insensitively.
func ParseAudioQuality(s string) (AudioQuality, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "voice", "voice-quality":
		return AudioQualityVoice, nil
	case "fm", "fm-quality":
		return AudioQualityFM, nil
	case "cd", "cd-quality":
		return AudioQualityCD, nil
	}
	return AudioQualityUnspecified, fmt.Errorf("media: unknown audio quality %q", s)
}

// Params reports the sampling parameters the quality implies.
func (q AudioQuality) Params() (rate avtime.Rate, channels, depth int) {
	switch q {
	case AudioQualityVoice:
		return avtime.RateVoice, 1, 8
	case AudioQualityFM:
		return avtime.RateFMAudio, 2, 16
	case AudioQualityCD:
		return avtime.RateCDAudio, 2, 16
	}
	return avtime.Rate{}, 0, 0
}

// DataRate reports the PCM data rate the quality implies.
func (q AudioQuality) DataRate() DataRate {
	rate, ch, depth := q.Params()
	if rate.IsZero() {
		return 0
	}
	return DataRate(rate.N / rate.D * int64(ch) * int64(depth) / 8)
}

// Type returns the raw PCM media data type matching the quality.
func (q AudioQuality) Type() *Type {
	switch q {
	case AudioQualityVoice:
		return TypeVoiceAudio
	case AudioQualityFM:
		return TypeFMAudio
	case AudioQualityCD:
		return TypeCDAudio
	}
	return nil
}
