package storage

// FuzzSCANEDFOrder fuzzes the differential harness: any byte stream
// decodes to a valid scheduler op stream (see
// sched_differential_test.go for the format), and the flat scheduler
// must stay byte-identical to the retained map+sort reference on every
// observable — service order, seek charges, results, head positions,
// IOStats and sink metrics.  The committed seeds under
// testdata/fuzz/FuzzSCANEDFOrder are workload-shaped traces (steady
// striped playback, tenancy deadline ties, overload with cancellations)
// and run as part of plain go test; CI additionally runs a short
// -fuzz smoke.  Run it locally when touching sched.go:
//
//	go test -fuzz=FuzzSCANEDFOrder -fuzztime 60s ./internal/storage

import "testing"

func FuzzSCANEDFOrder(f *testing.F) {
	for _, data := range corpusSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("op stream capped; longer inputs add no coverage")
		}
		runDifferential(t, data)
	})
}
