package synth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"avdb/internal/media"
)

// Tone generates a sine tone of the given frequency and duration at an
// audio quality's sampling parameters.
func Tone(q media.AudioQuality, freq float64, durSec float64, amplitude float64) (*media.AudioValue, error) {
	rate, ch, _ := q.Params()
	if rate.IsZero() {
		return nil, fmt.Errorf("synth: quality %v has no sampling parameters", q)
	}
	if amplitude < 0 || amplitude > 1 {
		return nil, fmt.Errorf("synth: amplitude %v outside [0,1]", amplitude)
	}
	if err := checkDuration(durSec); err != nil {
		return nil, err
	}
	a := media.NewAudioValue(q.Type(), ch)
	n := int(float64(rate.N) / float64(rate.D) * durSec)
	samples := make([]int16, n*ch)
	for i := 0; i < n; i++ {
		s := int16(amplitude * 30000 * math.Sin(2*math.Pi*freq*float64(i)*float64(rate.D)/float64(rate.N)))
		for c := 0; c < ch; c++ {
			samples[i*ch+c] = s
		}
	}
	if err := a.AppendSamples(samples); err != nil {
		return nil, err
	}
	return a, nil
}

// Speech generates speech-like audio: seeded bursts of band-limited noise
// with pauses, a stand-in for recorded narration on audio tracks.
func Speech(q media.AudioQuality, durSec float64, seed int64) (*media.AudioValue, error) {
	rate, ch, _ := q.Params()
	if rate.IsZero() {
		return nil, fmt.Errorf("synth: quality %v has no sampling parameters", q)
	}
	if err := checkDuration(durSec); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	a := media.NewAudioValue(q.Type(), ch)
	sampleRate := float64(rate.N) / float64(rate.D)
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

// checkDuration rejects a duration no sample count can be made from:
// negative, NaN or infinite.
func checkDuration(durSec float64) error {
	if !(durSec >= 0) || math.IsInf(durSec, 1) {
		return fmt.Errorf("synth: duration %v s is not finite and non-negative", durSec)
	}
	return nil
}

// MIDIEvent is one note event: velocity > 0 starts a note, velocity 0
// ends it.
type MIDIEvent struct {
	TickMS   int64 // milliseconds from sequence start
	Note     int   // MIDI note number, 0..127
	Velocity int   // 0..127; 0 = note off
}

// MIDISequence is a timed list of note events, the paper's "MIDI data"
// from which digital audio is synthesized on retrieval.
type MIDISequence struct {
	Events []MIDIEvent
	DurMS  int64
}

// Validate checks the duration, event ordering and ranges.
func (s *MIDISequence) Validate() error {
	if s.DurMS < 0 {
		return fmt.Errorf("synth: MIDI sequence duration %d ms is negative", s.DurMS)
	}
	var last int64
	for i, e := range s.Events {
		if e.TickMS < last {
			return fmt.Errorf("synth: MIDI event %d out of order", i)
		}
		last = e.TickMS
		if e.Note < 0 || e.Note > 127 || e.Velocity < 0 || e.Velocity > 127 {
			return fmt.Errorf("synth: MIDI event %d out of range", i)
		}
		if e.TickMS > s.DurMS {
			return fmt.Errorf("synth: MIDI event %d past sequence end", i)
		}
	}
	return nil
}

// NoteFreq returns the equal-temperament frequency of a MIDI note.
func NoteFreq(note int) float64 {
	return 440 * math.Pow(2, float64(note-69)/12)
}

// Jingle builds a seeded pentatonic melody of the given duration — test
// material for the MIDI source activity.
func Jingle(durMS int64, seed int64) *MIDISequence {
	rng := rand.New(rand.NewSource(seed))
	scale := []int{60, 62, 64, 67, 69, 72, 74, 76}
	seq := &MIDISequence{DurMS: durMS}
	t := int64(0)
	for t < durMS-200 {
		note := scale[rng.Intn(len(scale))]
		hold := int64(150 + rng.Intn(350))
		if t+hold > durMS {
			hold = durMS - t
		}
		seq.Events = append(seq.Events,
			MIDIEvent{TickMS: t, Note: note, Velocity: 64 + rng.Intn(63)},
			MIDIEvent{TickMS: t + hold, Note: note, Velocity: 0})
		t += hold + int64(rng.Intn(120))
	}
	sort.SliceStable(seq.Events, func(i, j int) bool { return seq.Events[i].TickMS < seq.Events[j].TickMS })
	return seq
}

// Synthesize renders a MIDI sequence to PCM audio at the given quality —
// additive sine synthesis with linear attack/release envelopes.
func Synthesize(seq *MIDISequence, q media.AudioQuality) (*media.AudioValue, error) {
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	rate, ch, _ := q.Params()
	if rate.IsZero() {
		return nil, fmt.Errorf("synth: quality %v has no sampling parameters", q)
	}
	sampleRate := float64(rate.N) / float64(rate.D)
	n := int(sampleRate * float64(seq.DurMS) / 1000)
	mix := make([]float64, n)

	// Pair note-on events with their note-offs.
	type voice struct {
		note     int
		from, to int // sample bounds
		vel      float64
	}
	var voices []voice
	open := make(map[int]int) // note -> index into voices
	for _, e := range seq.Events {
		at := int(float64(e.TickMS) / 1000 * sampleRate)
		if e.Velocity > 0 {
			open[e.Note] = len(voices)
			voices = append(voices, voice{note: e.Note, from: at, to: n, vel: float64(e.Velocity) / 127})
		} else if vi, ok := open[e.Note]; ok {
			voices[vi].to = at
			delete(open, e.Note)
		}
	}
	attack := int(sampleRate * 0.01)
	release := int(sampleRate * 0.03)
	for _, v := range voices {
		freq := NoteFreq(v.note)
		for i := v.from; i < v.to && i < n; i++ {
			env := 1.0
			if d := i - v.from; d < attack {
				env = float64(d) / float64(attack)
			}
			if d := v.to - i; d < release {
				env = math.Min(env, float64(d)/float64(release))
			}
			t := float64(i-v.from) / sampleRate
			// Fundamental plus a soft second harmonic.
			mix[i] += v.vel * env * (math.Sin(2*math.Pi*freq*t) + 0.3*math.Sin(4*math.Pi*freq*t))
		}
	}
	a := media.NewAudioValue(q.Type(), ch)
	samples := make([]int16, n*ch)
	for i, m := range mix {
		s := int16(math.Max(-1, math.Min(1, m*0.3)) * 30000)
		for c := 0; c < ch; c++ {
			samples[i*ch+c] = s
		}
	}
	if err := a.AppendSamples(samples); err != nil {
		return nil, err
	}
	return a, nil
}
