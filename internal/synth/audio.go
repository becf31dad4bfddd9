package synth

import (
	"fmt"
	"math"
	"math/rand"

	"avdb/internal/media"
)

// Speech generates speech-like audio: seeded bursts of band-limited noise
// with pauses, a stand-in for recorded narration on audio tracks.
func Speech(q media.AudioQuality, durSec float64, seed int64) (*media.AudioValue, error) {
	rate, ch, _ := q.Params()
	if rate.IsZero() {
		return nil, fmt.Errorf("synth: quality %v has no sampling parameters", q)
	}
	sampleRate := float64(rate.N) / float64(rate.D)
	if err := checkDuration(durSec, sampleRate, ch); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	a := media.NewAudioValue(q.Type(), ch)
	n := int(sampleRate * durSec)
	samples := make([]int16, n*ch)
	// Syllable-like bursts: 80-250ms of filtered noise, 30-120ms gaps.
	i := 0
	var prev float64
	for i < n {
		burst := int(sampleRate * (0.08 + rng.Float64()*0.17))
		gap := int(sampleRate * (0.03 + rng.Float64()*0.09))
		pitch := 90 + rng.Float64()*120
		for k := 0; k < burst && i < n; k, i = k+1, i+1 {
			// Glottal-ish pulse train plus smoothed noise.
			t := float64(k) / sampleRate
			env := math.Sin(math.Pi * float64(k) / float64(burst))
			raw := 0.6*math.Sin(2*math.Pi*pitch*t) + 0.4*(rng.Float64()*2-1)
			prev = prev + 0.25*(raw-prev) // one-pole lowpass
			s := int16(env * prev * 12000)
			for c := 0; c < ch; c++ {
				samples[i*ch+c] = s
			}
		}
		i += gap
	}
	if err := a.AppendSamples(samples); err != nil {
		return nil, err
	}
	return a, nil
}

// maxSamples caps the samples (rate × duration × channels) one call
// makes: 4 GiB of 16-bit PCM.
const maxSamples = 1 << 31

// checkDuration rejects a duration no sample count can be made from:
// negative, NaN, or one whose samples at sampleRate over ch channels
// exceed maxSamples (+Inf among them).  It runs before any allocation.
func checkDuration(durSec, sampleRate float64, ch int) error {
	if !(durSec >= 0) {
		return fmt.Errorf("synth: duration %v s is negative or NaN", durSec)
	}
	if n := durSec * sampleRate * float64(ch); n > maxSamples {
		return fmt.Errorf("synth: duration %v s makes %.0f samples, over the %d cap", durSec, n, maxSamples)
	}
	return nil
}
