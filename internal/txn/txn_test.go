package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"avdb/internal/media"
)

func TestModeCompatibilityMatrix(t *testing.T) {
	// Spot-check the classic matrix.
	cases := []struct {
		a, b Mode
		want bool
	}{
		{ModeIS, ModeX, false},
		{ModeIS, ModeSIX, true},
		{ModeIX, ModeIX, true},
		{ModeIX, ModeS, false},
		{ModeS, ModeS, true},
		{ModeS, ModeIX, false},
		{ModeSIX, ModeIS, true},
		{ModeSIX, ModeSIX, false},
		{ModeX, ModeIS, false},
	}
	for _, c := range cases {
		if compatible[c.a][c.b] != c.want {
			t.Errorf("compatible[%v][%v] = %v, want %v", c.a, c.b, compatible[c.a][c.b], c.want)
		}
		// Compatibility is symmetric.
		if compatible[c.a][c.b] != compatible[c.b][c.a] {
			t.Errorf("compatibility not symmetric for %v,%v", c.a, c.b)
		}
	}
	if ModeSIX.String() != "SIX" || Mode(9).String() != "Mode(9)" {
		t.Error("mode names wrong")
	}
}

func TestLubUpgrades(t *testing.T) {
	if lub[ModeIX][ModeS] != ModeSIX || lub[ModeS][ModeIX] != ModeSIX {
		t.Error("IX+S should upgrade to SIX")
	}
	if lub[ModeIS][ModeX] != ModeX || lub[ModeSIX][ModeIS] != ModeSIX {
		t.Error("lub wrong")
	}
	f := func(a, b uint8) bool {
		x, y := Mode(a%5), Mode(b%5)
		// lub is commutative and idempotent-ish (result >= both args in
		// the lattice: lub(result, x) == result).
		r := lub[x][y]
		return lub[y][x] == r && lub[r][x] == r && lub[r][y] == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, ClassRes("N"), ModeS); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, ClassRes("N"), ModeS); err != nil {
		t.Fatal(err)
	}
	if m, ok := lm.Held(1, ClassRes("N")); !ok || m != ModeS {
		t.Error("Held wrong")
	}
	lm.ReleaseAll(1)
	if _, ok := lm.Held(1, ClassRes("N")); ok {
		t.Error("released lock still held")
	}
}

func TestExclusiveBlocksAndWakes(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, DatabaseRes, ModeX); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- lm.Acquire(2, DatabaseRes, ModeX) }()
	select {
	case err := <-got:
		t.Fatalf("second X acquired while first held: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke")
	}
}

func TestLockUpgrade(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, ClassRes("N"), ModeS); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(1, ClassRes("N"), ModeIX); err != nil {
		t.Fatal(err)
	}
	if m, _ := lm.Held(1, ClassRes("N")); m != ModeSIX {
		t.Errorf("upgraded mode = %v, want SIX", m)
	}
	// A second transaction's IS is still compatible with SIX.
	if err := lm.Acquire(2, ClassRes("N"), ModeIS); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	lm := NewLockManager()
	a, b := ObjectRes("N", 1), ObjectRes("N", 2)
	if err := lm.Acquire(1, a, ModeX); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, b, ModeX); err != nil {
		t.Fatal(err)
	}
	// Tx 1 waits for b.
	done1 := make(chan error, 1)
	go func() { done1 <- lm.Acquire(1, b, ModeX) }()
	time.Sleep(20 * time.Millisecond)
	// Tx 2 requesting a closes the cycle and must be refused.
	err := lm.Acquire(2, a, ModeX)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("deadlock not detected: %v", err)
	}
	// Victim releases; tx 1 proceeds.
	lm.ReleaseAll(2)
	select {
	case err := <-done1:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("survivor never proceeded")
	}
}

func TestTransactionLifecycle(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	if tx.State() != TxActive || m.ActiveCount() != 1 {
		t.Error("begin state wrong")
	}
	if err := tx.LockObject("Newscast", 7, ModeX); err != nil {
		t.Fatal(err)
	}
	// Hierarchical acquisition: intention locks on ancestors.
	if m2, ok := m.Locks().Held(tx.ID(), DatabaseRes); !ok || m2 != ModeIX {
		t.Errorf("database lock = %v, %v", m2, ok)
	}
	if m2, ok := m.Locks().Held(tx.ID(), ClassRes("Newscast")); !ok || m2 != ModeIX {
		t.Errorf("class lock = %v, %v", m2, ok)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.State() != TxCommitted || m.ActiveCount() != 0 {
		t.Error("commit state wrong")
	}
	if _, ok := m.Locks().Held(tx.ID(), DatabaseRes); ok {
		t.Error("locks survive commit")
	}
	// Operations after commit fail.
	if err := tx.LockClass("X", ModeS); err == nil {
		t.Error("lock after commit accepted")
	}
	if err := tx.Commit(); err == nil {
		t.Error("double commit accepted")
	}
	tx.Abort() // no-op on finished tx
}

func TestAbortReleasesLocks(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	if err := tx.LockClass("N", ModeX); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if tx.State() != TxAborted {
		t.Error("abort state wrong")
	}
	tx2 := m.Begin()
	if err := tx2.LockClass("N", ModeX); err != nil {
		t.Fatalf("lock after abort blocked: %v", err)
	}
	tx2.Abort()
}

func TestConcurrentTransfersSerialize(t *testing.T) {
	// Classic bank transfer under 2PL: concurrent increments of a shared
	// counter keyed by object locks never lose updates.
	m := NewManager()
	var log Log
	log.Commit(Write{Key: "balance", Val: []byte{0}})

	const workers, iters = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for {
					tx := m.Begin()
					if err := tx.LockObject("Acct", 1, ModeX); err != nil {
						tx.Abort()
						continue
					}
					v := log.Live()["balance"]
					log.Commit(Write{Key: "balance", Val: []byte{v[0] + 1}})
					if err := tx.Commit(); err != nil {
						t.Error(err)
					}
					break
				}
			}
		}()
	}
	wg.Wait()
	if v := log.Live()["balance"]; v[0] != workers*iters {
		t.Errorf("balance = %d, want %d", v[0], workers*iters)
	}
}

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
	if cur, ok := vs.Current(1, "videoTrack"); !ok || cur.Value != v2 || cur.Num != 2 {
		t.Error("Current wrong")
	}
	if old, ok := vs.Get(1, "videoTrack", 1); !ok || old.Value != v1 {
		t.Error("Get wrong")
	}
	if _, ok := vs.Get(1, "videoTrack", 3); ok {
		t.Error("missing version found")
	}
	if _, ok := vs.Current(2, "videoTrack"); ok {
		t.Error("missing chain found")
	}
	if h := vs.History(1, "videoTrack"); len(h) != 2 || h[0].Note != "rough cut" {
		t.Errorf("History = %v", h)
	}
	// Revert keeps history and re-instates the old value.
	n, err = vs.Revert(1, "videoTrack", 1)
	if err != nil || n != 3 {
		t.Fatalf("revert = %d, %v", n, err)
	}
	if cur, _ := vs.Current(1, "videoTrack"); cur.Value != v1 {
		t.Error("revert did not restore value")
	}
	if _, err := vs.Revert(1, "videoTrack", 99); err == nil {
		t.Error("revert to missing version accepted")
	}
	if _, err := vs.Checkin(1, "x", nil, ""); err == nil {
		t.Error("nil checkin accepted")
	}
	if attrs := vs.VersionedAttrs(1); len(attrs) != 1 || attrs[0] != "videoTrack" {
		t.Errorf("VersionedAttrs = %v", attrs)
	}
}
