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
	kv := NewKV()
	seed := m.Begin()
	if err := kv.Put(seed, "balance", []byte{0}); err != nil {
		t.Fatal(err)
	}
	kv.Commit(seed)
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

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
					v, _ := kv.Get("balance")
					if err := kv.Put(tx, "balance", []byte{v[0] + 1}); err != nil {
						t.Error(err)
					}
					kv.Commit(tx)
					if err := tx.Commit(); err != nil {
						t.Error(err)
					}
					break
				}
			}
		}()
	}
	wg.Wait()
	v, _ := kv.Get("balance")
	if v[0] != workers*iters {
		t.Errorf("balance = %d, want %d", v[0], workers*iters)
	}
}

func TestWALAppendAndTypes(t *testing.T) {
	w := NewWAL()
	lsn1 := w.Append(Record{Type: RecBegin, TxID: 1})
	lsn2 := w.Append(Record{Type: RecCommit, TxID: 1})
	if lsn1 != 1 || lsn2 != 2 || w.Len() != 2 {
		t.Error("LSN assignment wrong")
	}
	if RecUpdate.String() != "UPDATE" || RecordType(9).String() != "RecordType(9)" {
		t.Error("record type names wrong")
	}
}

func TestKVCommitDurableAcrossCrash(t *testing.T) {
	m := NewManager()
	kv := NewKV()
	tx := m.Begin()
	if err := kv.Put(tx, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(tx, "b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	kv.Commit(tx)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	kv.Crash()
	if kv.Len() != 0 {
		t.Fatal("crash did not clear volatile store")
	}
	kv.Recover()
	if v, ok := kv.Get("a"); !ok || string(v) != "1" {
		t.Errorf("a after recovery = %q, %v", v, ok)
	}
	if v, ok := kv.Get("b"); !ok || string(v) != "2" {
		t.Errorf("b after recovery = %q, %v", v, ok)
	}
}

func TestKVUncommittedRolledBackOnRecovery(t *testing.T) {
	m := NewManager()
	kv := NewKV()
	committed := m.Begin()
	if err := kv.Put(committed, "stable", []byte("yes")); err != nil {
		t.Fatal(err)
	}
	kv.Commit(committed)
	if err := committed.Commit(); err != nil {
		t.Fatal(err)
	}
	loser := m.Begin()
	if err := kv.Put(loser, "stable", []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(loser, "new", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Crash with the loser in flight.
	kv.Crash()
	kv.Recover()
	if v, ok := kv.Get("stable"); !ok || string(v) != "yes" {
		t.Errorf("loser's overwrite survived: %q, %v", v, ok)
	}
	if _, ok := kv.Get("new"); ok {
		t.Error("loser's insert survived")
	}
}

func TestKVAbortUndoes(t *testing.T) {
	m := NewManager()
	kv := NewKV()
	setup := m.Begin()
	if err := kv.Put(setup, "k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	kv.Commit(setup)
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	if err := kv.Put(tx, "k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(tx, "k", []byte("newer")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(tx, "fresh", []byte("x")); err != nil {
		t.Fatal(err)
	}
	kv.Abort(tx)
	tx.Abort()
	if v, _ := kv.Get("k"); string(v) != "old" {
		t.Errorf("k after abort = %q", v)
	}
	if _, ok := kv.Get("fresh"); ok {
		t.Error("aborted insert survived")
	}
	// Recovery after an abort keeps the same state.
	kv.Crash()
	kv.Recover()
	if v, _ := kv.Get("k"); string(v) != "old" {
		t.Errorf("k after recovery = %q", v)
	}
	if _, ok := kv.Get("fresh"); ok {
		t.Error("aborted insert reappeared after recovery")
	}
}

func TestKVDeleteAndRecovery(t *testing.T) {
	m := NewManager()
	kv := NewKV()
	tx := m.Begin()
	if err := kv.Put(tx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(tx, "k", nil); err != nil { // delete
		t.Fatal(err)
	}
	kv.Commit(tx)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := kv.Get("k"); ok {
		t.Error("deleted key readable")
	}
	kv.Crash()
	kv.Recover()
	if _, ok := kv.Get("k"); ok {
		t.Error("deleted key resurrected by recovery")
	}
}

func TestKVPutOnFinishedTx(t *testing.T) {
	m := NewManager()
	kv := NewKV()
	tx := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(tx, "k", []byte("v")); err == nil {
		t.Error("put on committed tx accepted")
	}
}

func TestRecoveryEquivalenceProperty(t *testing.T) {
	// Random workload; crash+recover must reproduce exactly the state
	// committed transactions left behind.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		m := NewManager()
		kv := NewKV()
		want := make(map[string]string)
		for txi := 0; txi < 10; txi++ {
			tx := m.Begin()
			pending := make(map[string]*string)
			for op := 0; op < 5; op++ {
				key := fmt.Sprintf("k%d", rng.Intn(8))
				if rng.Intn(5) == 0 {
					if err := kv.Put(tx, key, nil); err != nil {
						t.Fatal(err)
					}
					pending[key] = nil
				} else {
					val := fmt.Sprintf("v%d-%d", txi, op)
					if err := kv.Put(tx, key, []byte(val)); err != nil {
						t.Fatal(err)
					}
					v := val
					pending[key] = &v
				}
			}
			if rng.Intn(3) == 0 && txi != 9 {
				kv.Abort(tx)
				tx.Abort()
				continue
			}
			// The last transaction stays uncommitted (in flight at crash).
			if txi == 9 {
				break
			}
			kv.Commit(tx)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			for k, v := range pending {
				if v == nil {
					delete(want, k)
				} else {
					want[k] = *v
				}
			}
		}
		kv.Crash()
		kv.Recover()
		if kv.Len() != len(want) {
			t.Fatalf("trial %d: %d keys, want %d", trial, kv.Len(), len(want))
		}
		for k, v := range want {
			got, ok := kv.Get(k)
			if !ok || string(got) != v {
				t.Fatalf("trial %d: %s = %q, want %q", trial, k, got, v)
			}
		}
		// Recover installs the log's images by reference, so a slice Get
		// hands out must be the caller's own: scribbling on it may change
		// neither the store nor the log.
		before := kv.WAL().Records()
		for k := range want {
			got, _ := kv.Get(k)
			for i := range got {
				got[i] ^= 0xff
			}
		}
		for k, v := range want {
			if got, _ := kv.Get(k); string(got) != v {
				t.Fatalf("trial %d: writing to Get's slice changed the store: %s = %q, want %q", trial, k, got, v)
			}
		}
		if after := kv.WAL().Records(); !reflect.DeepEqual(before, after) {
			t.Fatalf("trial %d: writing to Get's slice changed the log", trial)
		}
		kv.Crash()
		kv.Recover()
		for k, v := range want {
			if got, _ := kv.Get(k); string(got) != v {
				t.Fatalf("trial %d: second recovery: %s = %q, want %q", trial, k, got, v)
			}
		}
	}
}

// TestKVLoserIsUndoneOnce: recovery logs its rollback of a loser, so the
// next recovery does not roll it back again over a later commit.
func TestKVLoserIsUndoneOnce(t *testing.T) {
	m := NewManager()
	kv := NewKV()
	put := func(key, val string) {
		t.Helper()
		tx := m.Begin()
		if err := kv.Put(tx, key, []byte(val)); err != nil {
			t.Fatal(err)
		}
		kv.Commit(tx)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	put("k", "a")
	for _, id := range []int{0, 1} { // two losers, begun in either order
		loser := m.Begin()
		if err := kv.Put(loser, "k", []byte(fmt.Sprintf("loser-%d", id))); err != nil {
			t.Fatal(err)
		}
		if err := kv.Put(loser, fmt.Sprintf("new-%d", id), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	kv.Crash()
	kv.Recover()
	if v, _ := kv.Get("k"); string(v) != "a" || kv.Len() != 1 {
		t.Fatalf("after recovery k = %q with %d keys, want \"a\" alone", v, kv.Len())
	}
	logged := kv.WAL().Len()
	put("k", "c")
	put("new-0", "kept")
	kv.Crash()
	kv.Recover()
	if v, _ := kv.Get("k"); string(v) != "c" {
		t.Errorf("k = %q after the second recovery, want the later commit's \"c\"", v)
	}
	if v, _ := kv.Get("new-0"); string(v) != "kept" {
		t.Errorf("new-0 = %q after the second recovery, want \"kept\"", v)
	}
	if got := kv.WAL().Len(); got != logged+6 {
		t.Errorf("the second recovery logged %d records, want none: the losers were already aborted", got-logged-6)
	}
}

func TestKVEmptyValueIsNotADelete(t *testing.T) {
	m := NewManager()
	kv := NewKV()
	tx := m.Begin()
	if err := kv.Put(tx, "k", []byte{}); err != nil {
		t.Fatal(err)
	}
	kv.Commit(tx)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	kv.Crash()
	kv.Recover()
	if v, ok := kv.Get("k"); !ok || len(v) != 0 {
		t.Errorf("empty value after recovery = %q, %v; want present and empty", v, ok)
	}
}

func TestKVRangeVisitsLiveKeys(t *testing.T) {
	m := NewManager()
	kv := NewKV()
	tx := m.Begin()
	for _, k := range []string{"a", "b", "c"} {
		if err := kv.Put(tx, k, []byte(k+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Put(tx, "b", nil); err != nil {
		t.Fatal(err)
	}
	kv.Commit(tx)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]string)
	kv.Range(func(k string, v []byte) bool {
		seen[k] = string(v)
		return true
	})
	if want := map[string]string{"a": "aa", "c": "cc"}; !reflect.DeepEqual(seen, want) {
		t.Errorf("Range saw %v, want %v", seen, want)
	}
	calls := 0
	kv.Range(func(string, []byte) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("Range made %d calls after fn returned false, want 1", calls)
	}
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
