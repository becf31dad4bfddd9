package codec

import (
	"encoding/binary"
	"fmt"
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
// residual.  What they must emit and accept, byte for byte and error for
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

// packer is a streaming PackBits writer: it is handed the maximal runs of
// its input in order and appends their encoding to out.
type packer struct {
	out []byte
	lit int // index of the open literal run's control byte, -1 when none
}

// literal appends one byte to the open literal run, closing it at maxRun.
func (p *packer) literal(b byte) {
	if p.lit < 0 {
		p.lit = len(p.out)
		p.out = append(p.out, 0, b)
		return
	}
	p.out = append(p.out, b)
	p.out[p.lit]++
	if p.out[p.lit] == maxRun-1 {
		p.lit = -1
	}
}

// run appends a maximal run of n bytes of value v: repeat runs of up to
// maxRun while at least minRepeatRun bytes remain, the rest as literals.
func (p *packer) run(v byte, n int) {
	if n >= minRepeatRun {
		p.lit = -1
	}
	for n >= minRepeatRun {
		k := min(n, maxRun)
		p.out = append(p.out, byte(257-k), v)
		n -= k
	}
	for ; n > 0; n-- {
		p.literal(v)
	}
}

// pack appends to out the PackBits coding of a frame's residual: pix with
// q low bits dropped, minus its prediction — ref, the previous frame in
// the quantized domain, or with a nil ref the previous quantized byte of
// the frame itself (the intra predictor).  A non-nil keep receives the
// quantized frame, the next frame's ref; it may be ref itself.
func pack(out, pix, ref, keep []byte, q int) []byte {
	p := packer{out: out, lit: -1}
	s := uint(q) & 7
	low := lanes * uint64(0xff>>s)
	var (
		prev byte // the quantized byte before pix[i]
		v    byte // the open run's value
		run  int  // and its length so far
		i    int
	)
	for ; i+8 <= len(pix); i += 8 {
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
		for k := 0; k < 8; k++ {
			if b := byte(r >> (8 * k)); b != v {
				p.run(v, run)
				v, run = b, 0
			}
			run++
		}
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
			p.run(v, run)
			v, run = b, 0
		}
		run++
	}
	p.run(v, run)
	return p.out
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
				copy(d, ref[o:o+n])
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
