package codec

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Run-length entropy coding in the PackBits style: a control byte c is
// followed either by c+1 literal bytes (c in 0..127) or by one byte to be
// repeated 257-c times (c in 129..255).  Control value 128 is reserved.
// PackBits is the entropy stage of every codec in this package: the
// predictive/quantizing transforms in front of it turn smooth video and
// audio into long zero runs, which PackBits collapses.
//
// The frame kernels below fuse that stage with the transforms around it:
// pack quantizes, predicts and run-length codes in one pass over the
// pixels, unpack run-length decodes, predicts and dequantizes in one pass
// straight into the reconstructed pixels.  Neither materializes the
// residual.  Three fast paths serve the shapes real streams are made of,
// each exact under the condition it names:
//
//   - (a) pack, in-place zero words: when keep is ref and the open run is
//     zero, words whose quantized pixels equal ref's lengthen the run in
//     a loop of their own (sameWords) and are not stored.  Exact because
//     keep aliases ref, which already holds those bytes.
//   - (b) pack, inline short literals: a run of one or two bytes joins
//     the open literal run in place, or opens one, while that run stays
//     short of maxRun bytes; every other run goes through emit.  Exact
//     because a run under minRepeatRun is coded as literals and the cap
//     is not reached.
//   - (c) unpack, coalesced zero repeats: zero repeat runs against a
//     reference that follow one another are one copy, extended over each
//     next run only while it is whole and in bounds, so a malformed run
//     or one past the frame still fails where it stands.
//
// What the kernels must emit and accept, byte for byte and error for
// error, is pinned by the multi-pass kernels they replaced, kept in
// reference_test.go.

const (
	maxRun       = 128 // longest literal or repeat run one control byte covers
	minRepeatRun = 3   // shorter repeats are cheaper as literals
)

// SWAR constants: one byte lane per 8 bits of a uint64.
const (
	lanes    = 0x0101010101010101
	laneHigh = 0x8080808080808080
)

// subLanes subtracts b from a in each byte lane, modulo 256.
func subLanes(a, b uint64) uint64 {
	return ((a | laneHigh) - (b &^ laneHigh)) ^ ((a ^ ^b) & laneHigh)
}

// addLanes adds a and b in each byte lane, modulo 256.
func addLanes(a, b uint64) uint64 {
	return ((a &^ laneHigh) + (b &^ laneHigh)) ^ ((a ^ b) & laneHigh)
}

// pack appends to out the PackBits coding of a frame's residual: pix with
// q low bits dropped, minus its prediction — ref, the previous frame in
// the quantized domain, or with a nil ref the previous quantized byte of
// the frame itself (the intra predictor).  A non-nil keep receives the
// quantized frame, the next frame's ref; it may be ref itself.
//
// The residual is walked a word of eight pixels at a time as maximal
// runs, each coded when the next one starts (paths a and b, emit) into
// out grown once for the worst case: every byte a literal, plus one
// control byte per maxRun.  A word that is all the open run's value only
// lengthens it.
func pack(out, pix, ref, keep []byte, q int) []byte {
	o := len(out)
	buf := slices.Grow(out, len(pix)+(len(pix)+maxRun-1)/maxRun) // the worst case: all literals
	buf = buf[:cap(buf)]
	lit := -1 // index of the open literal run's control byte, -1 when none
	inPlace := len(ref) > 0 && len(keep) > 0 && &keep[0] == &ref[0]
	s := uint(q) & 7
	low := lanes * uint64(0xff>>s)
	var (
		prev byte // the quantized byte before pix[i]
		v    byte // the open run's value
		run  int  // and its length so far
		i    int
	)
	for ; i+8 <= len(pix); i += 8 {
		if inPlace && v == 0 {
			n := sameWords(pix[i:], ref[i:], s, low)
			i += n
			run += n
			if i+8 > len(pix) {
				break
			}
		}
		t := binary.LittleEndian.Uint64(pix[i:i+8]) >> s & low
		pred := t<<8 | uint64(prev)
		if ref != nil {
			pred = binary.LittleEndian.Uint64(ref[i : i+8])
		}
		if keep != nil {
			binary.LittleEndian.PutUint64(keep[i:i+8], t)
		}
		prev = byte(t >> 56)
		r := subLanes(t, pred)
		if r == lanes*uint64(v) {
			run += 8
			continue
		}
		o, lit, v, run = packLanes(buf, o, lit, v, run, r)
	}
	for ; i < len(pix); i++ {
		t := pix[i] >> s
		pred := prev
		if ref != nil {
			pred = ref[i]
		}
		if keep != nil {
			keep[i] = t
		}
		prev = t
		if b := t - pred; b != v {
			o, lit = emit(buf, o, lit, v, run)
			v, run = b, 0
		}
		run++
	}
	o, _ = emit(buf, o, lit, v, run)
	return buf[:o]
}

// sameWords returns the length of the longest run of whole words at the
// start of pix that, shifted right by s and masked by low, equal ref's.
// It stays out of line so that its loop keeps its state in registers,
// which inside pack's word loop would be spilled on every word.
//
//go:noinline
func sameWords(pix, ref []byte, s uint, low uint64) int {
	s &= 7
	n := 0
	for ; len(pix) >= 8 && len(ref) >= 8; n += 8 {
		if binary.LittleEndian.Uint64(pix)>>s&low != binary.LittleEndian.Uint64(ref) {
			break
		}
		pix, ref = pix[8:], ref[8:]
	}
	return n
}

// packLanes feeds the eight byte lanes of the residual word r, lowest
// first, to pack's open run of value v and length run, and returns the
// new output state.  A run that ends is written in place when path (b)
// allows, and goes through emit otherwise.
func packLanes(buf []byte, o, lit int, v byte, run int, r uint64) (int, int, byte, int) {
	for k := 0; k < 8; k++ {
		if b := byte(r); b != v {
			if run > 0 && run < minRepeatRun && (lit < 0 || o-lit-1+run < maxRun) {
				if lit < 0 {
					lit = o
					o++
				}
				// Both stores are in bounds: the byte b, still to
				// come, takes at least one more output byte.
				buf[o], buf[o+1] = v, v
				o += run
				buf[lit] = byte(o - lit - 2)
			} else {
				o, lit = emit(buf, o, lit, v, run)
			}
			v, run = b, 0
		}
		r >>= 8
		run++
	}
	return o, lit, v, run
}

// emit writes at buf[o] the coding of a maximal run of n bytes of value
// v, given the open literal run's control byte at lit (-1 when none):
// repeat runs of up to maxRun while at least minRepeatRun bytes remain,
// the rest joining the literal run, which closes at maxRun bytes.  It
// returns the new o and lit.
func emit(buf []byte, o, lit int, v byte, n int) (int, int) {
	if n >= minRepeatRun {
		lit = -1
	}
	for n >= minRepeatRun {
		k := min(n, maxRun)
		buf[o], buf[o+1] = byte(257-k), v
		o += 2
		n -= k
	}
	for ; n > 0; n-- {
		if lit < 0 {
			lit = o
			o++
		}
		buf[o] = v
		o++
		buf[lit] = byte(o - lit - 2)
		if o-lit-1 == maxRun {
			lit = -1
		}
	}
	return o, lit
}

// unpack decodes the PackBits stream src into dst, which it must fill
// exactly, as pixels: each decoded residual is added to its prediction in
// the quantized domain, and the sum restored with q low bits at their
// midpoint.  The prediction is ref[i] — a frame unpack produced with the
// same q, or at q 0 any frame — or with a nil ref the quantized byte just
// reconstructed (the intra predictor).  dst may be ref itself.  On error
// dst holds garbage; a ref that is not dst is untouched.
//
// ref's low q bits are all the midpoint, so adding a residual shifted up
// by q to a ref pixel adds it in the quantized domain: the low bits never
// carry, and the high bits wrap as the quantized byte does.
func unpack(dst, src, ref []byte, q int) error {
	s := uint(q) & 7
	mid := byte(1) << s >> 1
	high := lanes * uint64(0xff<<s&0xff)
	var (
		o    int  // bytes of dst reconstructed
		prev byte // the quantized dst[o-1], the intra predictor
	)
	for i := 0; i < len(src); {
		c := src[i]
		i++
		var n int
		switch {
		case c < 128:
			n = int(c) + 1
			if i+n > len(src) {
				return fmt.Errorf("codec: truncated RLE literal run (need %d bytes, have %d)", n, len(src)-i)
			}
		case c > 128:
			if i >= len(src) {
				return fmt.Errorf("codec: truncated RLE repeat run")
			}
			n = 257 - int(c)
		default:
			return fmt.Errorf("codec: reserved RLE control byte 128")
		}
		if n > len(dst)-o {
			return fmt.Errorf("codec: RLE stream ran past the frame's %d bytes", len(dst))
		}
		d := dst[o : o+n]
		if c < 128 {
			lit := src[i : i+n]
			i += n
			if ref == nil {
				for k, b := range lit {
					prev += b
					d[k] = prev<<s | mid
				}
			} else {
				addShiftedInto(d, ref[o:o+n], lit, s, high)
			}
		} else {
			v := src[i]
			i++
			switch {
			case ref == nil:
				for k := range d {
					prev += v
					d[k] = prev<<s | mid
				}
			case v == 0:
				// The zero repeats that follow, while each is whole and
				// in bounds, join one copy (path c).
				for i+1 < len(src) && src[i] > 128 && src[i+1] == 0 && 257-int(src[i]) <= len(dst)-o-n {
					n += 257 - int(src[i])
					i += 2
				}
				copy(dst[o:o+n], ref[o:o+n])
			default:
				v <<= s
				for k, b := range ref[o : o+n] {
					d[k] = b + v
				}
			}
		}
		o += n
	}
	if o != len(dst) {
		return fmt.Errorf("codec: decoded %d bytes, want %d", o, len(dst))
	}
	return nil
}

// addShiftedInto sets d[k] = a[k] + b[k]<<s; the three have one length,
// and high masks the bits of each lane that b<<s leaves in it.
func addShiftedInto(d, a, b []byte, s uint, high uint64) {
	k := 0
	for ; len(d)-k >= 8; k += 8 {
		bs := binary.LittleEndian.Uint64(b[k:]) << s & high
		binary.LittleEndian.PutUint64(d[k:], addLanes(binary.LittleEndian.Uint64(a[k:]), bs))
	}
	for ; k < len(d); k++ {
		d[k] = a[k] + b[k]<<s
	}
}

// dequantizeInto restores pixel bytes from the quantized domain with
// midpoint reconstruction, the decoder's view of a frame the scalable
// encoder predicts from.  pix may be t itself.
func dequantizeInto(pix, t []byte, q int) {
	s := uint(q) & 7
	mid := byte(1) << s >> 1
	high := lanes * uint64(0xff<<s&0xff)
	mids := lanes * uint64(mid)
	pix = pix[:len(t)]
	for len(t) >= 8 {
		binary.LittleEndian.PutUint64(pix, binary.LittleEndian.Uint64(t)<<s&high|mids)
		pix, t = pix[8:], t[8:]
	}
	for i, tv := range t {
		pix[i] = tv<<s + mid
	}
}
