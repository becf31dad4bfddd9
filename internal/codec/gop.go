package codec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"avdb/internal/media"
)

// encodeFrames codes v's frames into e GOP by GOP (see eachGOP), on v's
// timeline.  code appends one frame's coding to dst and reports whether
// it is a key frame; enc is its worker's encoder, reset at each GOP's
// start so that it codes the GOP as a fresh one would.  A GOP's frames
// are packed into the worker's scratch, then copied once into an
// exact-size block that each frame's Data is a capacity-limited window
// of.
func (e *EncodedVideo) encodeFrames(v *media.VideoValue, code func(enc *VideoStreamEncoder, dst, pix []byte) ([]byte, bool)) {
	e.SetTransform(v.Transform())
	slots := make([]EncodedFrame, v.NumFrames())
	e.frames = make([]*EncodedFrame, len(slots))
	eachGOP(len(slots), e.gop, func() func(lo, hi int) {
		enc := &VideoStreamEncoder{quant: e.quant, gop: e.gop}
		var buf []byte
		ends := make([]int, 0, min(e.gop, len(slots)))
		return func(lo, hi int) {
			enc.Reset()
			buf, ends = buf[:0], ends[:0]
			for i := lo; i < hi; i++ {
				f, _ := v.Frame(i) // i < NumFrames: cannot fail
				buf, slots[i].Key = code(enc, buf, f.Pix)
				ends = append(ends, len(buf))
			}
			block := make([]byte, len(buf))
			copy(block, buf)
			start := 0
			for k, end := range ends {
				slots[lo+k].Data = block[start:end:end]
				e.frames[lo+k] = &slots[lo+k]
				start = end
			}
		}
	})
}

// decodeFrames reconstructs e's frames GOP by GOP (see eachGOP) into a
// raw value on e's timeline; its GOPs start every e.gop frames, at the
// key frames encodeFrames laid out.  decode returns frame i as a frame
// the caller owns; d is its worker's stream decoder, reset at each
// GOP's start.  The error is the lowest-index failing frame's, as a serial
// loop's would be.
func (e *EncodedVideo) decodeFrames(decode func(d *VideoStreamDecoder, i int) (*media.Frame, error)) (*media.VideoValue, error) {
	v := media.NewVideoValue(media.TypeRawVideo30, e.width, e.height, e.depth)
	v.SetTransform(e.Transform())
	out := make([]*media.Frame, len(e.frames))
	errs := make([]error, len(e.frames))
	eachGOP(len(e.frames), e.gop, func() func(lo, hi int) {
		d := e.streamDecoder()
		return func(lo, hi int) {
			d.Reset()
			for i := lo; i < hi; i++ {
				if out[i], errs[i] = decode(d, i); errs[i] != nil {
					return
				}
			}
		}
	})
	for i, f := range out {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if err := v.AppendFrame(f); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// eachGOP splits n frames into GOPs of gop frames, the last maybe short,
// and runs each GOP's frame range [lo, hi) on a worker.  Workers claim
// GOPs from one atomic cursor; there are min(GOMAXPROCS, GOPs) of them,
// the caller among them, so one worker starts no goroutine.  newWorker
// runs once per worker, on its goroutine.
func eachGOP(n, gop int, newWorker func() func(lo, hi int)) {
	if n == 0 {
		return
	}
	gops := (n-1)/gop + 1
	workers := min(runtime.GOMAXPROCS(0), gops)
	var next atomic.Int64
	work := func() {
		run := newWorker()
		for g := int(next.Add(1) - 1); g < gops; g = int(next.Add(1) - 1) {
			run(g*gop, min(n, (g+1)*gop))
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
