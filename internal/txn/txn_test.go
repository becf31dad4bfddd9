package txn

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"avdb/internal/media"
)

func TestKVCommitDurableAcrossCrash(t *testing.T) {
	var log Log
	log.Commit(Write{Key: "a", Val: []byte("1")}, Write{Key: "b", Val: []byte("2")})
	if log.Len() != 1 {
		t.Errorf("Len = %d statements, want 1", log.Len())
	}
	live := log.Live()
	if v, ok := live["a"]; !ok || string(v) != "1" {
		t.Errorf("a after recovery = %q, %v", v, ok)
	}
	if v, ok := live["b"]; !ok || string(v) != "2" {
		t.Errorf("b after recovery = %q, %v", v, ok)
	}
}

func TestKVDeleteAndRecovery(t *testing.T) {
	var log Log
	log.Commit(Write{Key: "k", Val: []byte("v")}, Write{Key: "k"}) // put, then delete
	log.Commit(Write{Key: "j", Val: []byte("v")})
	log.Commit(Write{Key: "j"})
	live := log.Live()
	if _, ok := live["k"]; ok {
		t.Error("key deleted in its own statement resurrected by recovery")
	}
	if _, ok := live["j"]; ok {
		t.Error("key deleted by a later statement resurrected by recovery")
	}
}

func TestKVEmptyValueIsNotADelete(t *testing.T) {
	var log Log
	log.Commit(Write{Key: "k", Val: []byte{}})
	if v, ok := log.Live()["k"]; !ok || v == nil || len(v) != 0 {
		t.Errorf("empty value after recovery = %q, %v; want present and empty", v, ok)
	}
}

func TestKVRangeVisitsLiveKeys(t *testing.T) {
	var log Log
	log.Commit(Write{Key: "a", Val: []byte("aa")}, Write{Key: "b", Val: []byte("bb")}, Write{Key: "c", Val: []byte("cc")})
	log.Commit(Write{Key: "b"})
	seen := make(map[string]string)
	for k, v := range log.Live() {
		seen[k] = string(v)
	}
	if want := map[string]string{"a": "aa", "c": "cc"}; !reflect.DeepEqual(seen, want) {
		t.Errorf("Live = %v, want %v", seen, want)
	}
}

func TestRecoveryEquivalenceProperty(t *testing.T) {
	// Random statements; the log's fold must reproduce exactly the state
	// they left behind.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		var log Log
		want := make(map[string]string)
		for stmt := 0; stmt < 10; stmt++ {
			var ws []Write
			for op := 0; op < 5; op++ {
				key := fmt.Sprintf("k%d", rng.Intn(8))
				if rng.Intn(5) == 0 {
					ws = append(ws, Write{Key: key})
					delete(want, key)
				} else {
					val := fmt.Sprintf("v%d-%d", stmt, op)
					ws = append(ws, Write{Key: key, Val: []byte(val)})
					want[key] = val
				}
			}
			log.Commit(ws...)
			// The log keeps its own copy: scribbling on the caller's
			// buffers may not change it.
			for _, w := range ws {
				for i := range w.Val {
					w.Val[i] ^= 0xff
				}
			}
		}
		for pass := 1; pass <= 2; pass++ {
			live := log.Live()
			if len(live) != len(want) {
				t.Fatalf("trial %d, fold %d: %d keys, want %d", trial, pass, len(live), len(want))
			}
			for k, v := range want {
				if got, ok := live[k]; !ok || string(got) != v {
					t.Fatalf("trial %d, fold %d: %s = %q, want %q", trial, pass, k, got, v)
				}
			}
		}
	}
}

// TestLogSnapshotsSeeWholeStatements: goroutines commit bursts of
// multi-key statements while another folds the log.  Every fold — what a
// crash at that instant would recover — holds each statement whole or
// not at all, and each goroutine's statements as a prefix of its order.
func TestLogSnapshotsSeeWholeStatements(t *testing.T) {
	const goroutines, stmts, keys, snapshots = 4, 1000, 4, 50
	var names [goroutines][stmts][keys]string // never overwritten: one key per (g, s, k)
	for g := range names {
		for s := range names[g] {
			for k := range names[g][s] {
				names[g][s][k] = fmt.Sprintf("g%d/s%d/k%d", g, s, k)
			}
		}
	}
	check := func(live map[string][]byte) {
		t.Helper()
		whole := 0
		for g := range names {
			for _, stmt := range names[g] {
				present := 0
				for _, key := range stmt {
					if v, ok := live[key]; ok {
						if string(v) != key {
							t.Fatalf("%s = %q", key, v)
						}
						present++
					}
				}
				if present == 0 {
					break
				}
				if present != keys {
					t.Fatalf("%v: %d of %d keys live, a torn statement", stmt, present, keys)
				}
				whole++
			}
		}
		// Every live key is in some goroutine's prefix of whole statements.
		if len(live) != whole*keys {
			t.Fatalf("%d keys live, %d in each goroutine's prefix of whole statements", len(live), whole*keys)
		}
	}
	var log Log
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := make([]Write, keys)
			for _, stmt := range names[g] {
				select {
				case <-stop:
					return
				default:
				}
				for k, key := range stmt {
					ws[k] = Write{Key: key, Val: []byte(key)}
				}
				log.Commit(ws...)
			}
		}()
	}
	for i := 0; i < snapshots; i++ {
		check(log.Live())
	}
	close(stop)
	wg.Wait()
	check(log.Live())
}

func TestVersionStore(t *testing.T) {
	vs := NewVersionStore()
	mk := func(frames int) media.Value {
		v := media.NewVideoValue(media.TypeRawVideo30, 2, 2, 8)
		for i := 0; i < frames; i++ {
			if err := v.AppendFrame(media.NewFrame(2, 2, 8)); err != nil {
				t.Fatal(err)
			}
		}
		return v
	}
	v1, v2 := mk(10), mk(20)
	n, err := vs.Checkin(1, "videoTrack", v1, "rough cut")
	if err != nil || n != 1 {
		t.Fatalf("checkin = %d, %v", n, err)
	}
	n, err = vs.Checkin(1, "videoTrack", v2, "final cut")
	if err != nil || n != 2 {
		t.Fatalf("checkin = %d, %v", n, err)
	}
	if h := vs.History(1, "videoTrack"); len(h) != 2 || h[0].Note != "rough cut" || h[0].Value != v1 {
		t.Errorf("History = %v", h)
	}
	if _, err := vs.Checkin(1, "x", nil, ""); err == nil {
		t.Error("nil checkin accepted")
	}
}
