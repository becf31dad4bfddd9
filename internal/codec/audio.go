package codec

import (
	"encoding/binary"
	"fmt"

	"avdb/internal/avtime"
	"avdb/internal/media"
)

// MuLaw is the µ-law companding audio codec (G.711): 16-bit linear PCM to
// 8 bits per sample, 2:1.  Lossy with logarithmic quantization error.
type MuLaw struct{}

// MuLawCodec is the µ-law codec.
var MuLawCodec AudioCodec = MuLaw{}

// Encode implements AudioCodec.  The encoded value keeps a's timeline.
func (MuLaw) Encode(a *media.AudioValue) (*EncodedAudio, error) {
	n := a.NumSamples()
	src, err := a.Samples(0, n)
	if err != nil {
		return nil, err
	}
	data := make([]byte, len(src))
	for i, s := range src {
		data[i] = muLawEncode(s)
	}
	return newEncodedAudio(TypeMuLawAudio, a.Channels(), n, data, a.Transform()), nil
}

// Decode implements AudioCodec, restoring e's timeline.
func (MuLaw) Decode(e *EncodedAudio) (*media.AudioValue, error) {
	rawType, err := rawAudioTypeFor(e.Transform().Rate)
	if err != nil {
		return nil, err
	}
	a := media.NewAudioValue(rawType, e.channels)
	a.SetTransform(e.Transform())
	samples := make([]int16, len(e.data))
	for i, b := range e.data {
		samples[i] = muLawDecode(b)
	}
	if err := a.AppendSamples(samples); err != nil {
		return nil, err
	}
	return a, nil
}

const muLawBias = 0x84

// muLawEncode compands one 16-bit sample to 8 bits (G.711 µ-law).
func muLawEncode(s int16) byte {
	sign := byte(0)
	v := int32(s)
	if v < 0 {
		v = -v
		sign = 0x80
	}
	if v > 32635 {
		v = 32635
	}
	v += muLawBias
	exp := byte(7)
	for mask := int32(0x4000); mask != 0 && v&mask == 0; mask >>= 1 {
		exp--
	}
	mantissa := byte((v >> (int32(exp) + 3)) & 0x0F)
	return ^(sign | exp<<4 | mantissa)
}

// muLawDecode expands one µ-law byte to a 16-bit sample.
func muLawDecode(b byte) int16 {
	b = ^b
	sign := b & 0x80
	exp := (b >> 4) & 0x07
	mantissa := b & 0x0F
	v := ((int32(mantissa) << 3) + muLawBias) << exp
	v -= muLawBias
	if sign != 0 {
		v = -v
	}
	return int16(v)
}

// ADPCM is the IMA ADPCM audio codec: 4 bits per sample, 4:1 over 16-bit
// PCM.  Per-channel predictor state is carried in an 8-byte header per
// channel (initial predictor and step index).
type ADPCM struct{}

// ADPCMCodec is the IMA ADPCM codec.
var ADPCMCodec AudioCodec = ADPCM{}

var imaIndexTable = [16]int{-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8}

var imaStepTable = [89]int32{
	7, 8, 9, 10, 11, 12, 13, 14, 16, 17,
	19, 21, 23, 25, 28, 31, 34, 37, 41, 45,
	50, 55, 60, 66, 73, 80, 88, 97, 107, 118,
	130, 143, 157, 173, 190, 209, 230, 253, 279, 307,
	337, 371, 408, 449, 494, 544, 598, 658, 724, 796,
	876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
	2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358,
	5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899,
	15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
}

type imaState struct {
	pred  int32
	index int
}

func (st *imaState) encodeSample(s int16) byte {
	step := imaStepTable[st.index]
	diff := int32(s) - st.pred
	var nibble byte
	if diff < 0 {
		nibble = 8
		diff = -diff
	}
	var delta int32
	if diff >= step {
		nibble |= 4
		diff -= step
		delta += step
	}
	if diff >= step>>1 {
		nibble |= 2
		diff -= step >> 1
		delta += step >> 1
	}
	if diff >= step>>2 {
		nibble |= 1
		delta += step >> 2
	}
	delta += step >> 3
	if nibble&8 != 0 {
		st.pred -= delta
	} else {
		st.pred += delta
	}
	st.pred = clamp16(st.pred)
	st.index += imaIndexTable[nibble]
	st.index = clampIndex(st.index)
	return nibble
}

func (st *imaState) decodeSample(nibble byte) int16 {
	step := imaStepTable[st.index]
	delta := step >> 3
	if nibble&4 != 0 {
		delta += step
	}
	if nibble&2 != 0 {
		delta += step >> 1
	}
	if nibble&1 != 0 {
		delta += step >> 2
	}
	if nibble&8 != 0 {
		st.pred -= delta
	} else {
		st.pred += delta
	}
	st.pred = clamp16(st.pred)
	st.index += imaIndexTable[nibble]
	st.index = clampIndex(st.index)
	return int16(st.pred)
}

func clamp16(v int32) int32 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return v
}

func clampIndex(i int) int {
	if i < 0 {
		return 0
	}
	if i > 88 {
		return 88
	}
	return i
}

// Encode implements AudioCodec.  The payload is, per channel, a 4-byte
// header (initial predictor, step index) followed by the packed nibbles
// of all channels interleaved two samples per byte per channel.  The
// encoded value keeps a's timeline.
func (ADPCM) Encode(a *media.AudioValue) (*EncodedAudio, error) {
	n, ch := a.NumSamples(), a.Channels()
	src, err := a.Samples(0, n)
	if err != nil {
		return nil, err
	}
	states := make([]imaState, ch)
	// Seed each channel's predictor with its first sample for fast
	// convergence.
	for c := 0; c < ch; c++ {
		if n > 0 {
			states[c].pred = int32(src[c])
		}
	}
	data := make([]byte, 0, 4*ch+(n*ch+1)/2)
	for c := 0; c < ch; c++ {
		var hdr [4]byte
		binary.BigEndian.PutUint16(hdr[0:2], uint16(states[c].pred))
		hdr[2] = byte(states[c].index)
		data = append(data, hdr[:]...)
	}
	var cur byte
	half := false
	for i := 0; i < n; i++ {
		for c := 0; c < ch; c++ {
			nib := states[c].encodeSample(src[i*ch+c])
			if !half {
				cur = nib << 4
				half = true
			} else {
				data = append(data, cur|nib)
				half = false
			}
		}
	}
	if half {
		data = append(data, cur)
	}
	return newEncodedAudio(TypeADPCMAudio, ch, n, data, a.Transform()), nil
}

// Decode implements AudioCodec, restoring e's timeline.
func (ADPCM) Decode(e *EncodedAudio) (*media.AudioValue, error) {
	rawType, err := rawAudioTypeFor(e.Transform().Rate)
	if err != nil {
		return nil, err
	}
	ch := e.channels
	if len(e.data) < 4*ch {
		return nil, fmt.Errorf("codec: ADPCM payload shorter than %d channel headers", ch)
	}
	states := make([]imaState, ch)
	for c := 0; c < ch; c++ {
		hdr := e.data[c*4 : c*4+4]
		states[c].pred = int32(int16(binary.BigEndian.Uint16(hdr[0:2])))
		states[c].index = clampIndex(int(hdr[2]))
	}
	body := e.data[4*ch:]
	total := e.samples * ch
	if (total+1)/2 > len(body) {
		return nil, fmt.Errorf("codec: ADPCM payload holds %d nibbles, need %d", len(body)*2, total)
	}
	samples := make([]int16, total)
	for i := 0; i < total; i++ {
		var nib byte
		if i%2 == 0 {
			nib = body[i/2] >> 4
		} else {
			nib = body[i/2] & 0x0F
		}
		samples[i] = states[i%ch].decodeSample(nib)
	}
	a := media.NewAudioValue(rawType, ch)
	a.SetTransform(e.Transform())
	if err := a.AppendSamples(samples); err != nil {
		return nil, err
	}
	return a, nil
}

// rawAudioTypeFor maps a sample rate back to the raw PCM media data type
// a decoder should produce.
func rawAudioTypeFor(r avtime.Rate) (*media.Type, error) {
	switch {
	case r.Equal(avtime.RateCDAudio):
		return media.TypeCDAudio, nil
	case r.Equal(avtime.RateFMAudio):
		return media.TypeFMAudio, nil
	case r.Equal(avtime.RateVoice):
		return media.TypeVoiceAudio, nil
	}
	return nil, fmt.Errorf("codec: no raw PCM type at rate %v", r)
}
