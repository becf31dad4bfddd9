package sched

import (
	"math/bits"

	"avdb/internal/avtime"
)

// Mix hashes x under key with one SplitMix64 step: a bijective 64-bit
// mix that scatters nearby inputs across the whole range.  A keyed
// draw is a chain of Mix calls over the names of what is drawn for, so
// it is the same whatever was drawn before it.
func Mix(key, x uint64) uint64 {
	x ^= key
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uniform is draw n under key, uniform on [0, max]: Mix(key, n) scaled
// by a multiply-high, with no state to seed or lock.
func Uniform(key, n uint64, max avtime.WorldTime) avtime.WorldTime {
	hi, _ := bits.Mul64(Mix(key, n), uint64(max)+1)
	return avtime.WorldTime(hi)
}
