package fault

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/netsim"
	"avdb/internal/sched"
)

// fakeClock is a settable sched.Clock.
type fakeClock struct{ now avtime.WorldTime }

func (c *fakeClock) Now() avtime.WorldTime { return c.now }

func TestPlanValidation(t *testing.T) {
	p := NewPlan(1)
	bad := []Fault{
		{Kind: TransientRead, Probability: 0.5},                                    // no target
		{Kind: TransientRead, Target: "d", Probability: 0},                         // p out of range
		{Kind: TransientRead, Target: "d", Probability: 1.5},                       // p out of range
		{Kind: LinkDegrade, Target: "l", Factor: 0},                                // factor out of range
		{Kind: LinkDegrade, Target: "l", Factor: 1.01},                             // factor out of range
		{Kind: DeviceOutage, Target: "d", Start: -avtime.Second},                   // negative window
		{Kind: ChunkLoss, Target: "l", Probability: 0.1, Dur: -avtime.Millisecond}, // negative window
		{Kind: Kind(99), Target: "d"},                                              // unknown kind
	}
	for i, f := range bad {
		if _, err := p.Add(f); err == nil {
			t.Errorf("fault %d (%v) accepted", i, f)
		}
	}
	if len(p.Faults()) != 0 {
		t.Errorf("rejected faults were scheduled: %v", p.Faults())
	}
	p.MustAdd(Fault{Kind: DeviceOutage, Target: "d", Start: avtime.Second, Dur: avtime.Second})
	if got := len(p.Faults()); got != 1 {
		t.Errorf("faults = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAdd on invalid fault did not panic")
		}
	}()
	p.MustAdd(Fault{Kind: TransientRead})
}

func TestFaultWindowActivation(t *testing.T) {
	windowed := Fault{Kind: DeviceOutage, Target: "d", Start: 2 * avtime.Second, Dur: avtime.Second}
	openEnded := Fault{Kind: DeviceOutage, Target: "d", Start: 2 * avtime.Second}
	cases := []struct {
		now               avtime.WorldTime
		wantWin, wantOpen bool
	}{
		{0, false, false},
		{2*avtime.Second - 1, false, false},
		{2 * avtime.Second, true, true}, // inclusive start
		{3*avtime.Second - 1, true, true},
		{3 * avtime.Second, false, true}, // exclusive end; open-ended never closes
		{time(1000), false, true},
	}
	for _, c := range cases {
		if got := windowed.active(c.now); got != c.wantWin {
			t.Errorf("windowed.active(%v) = %v", c.now, got)
		}
		if got := openEnded.active(c.now); got != c.wantOpen {
			t.Errorf("openEnded.active(%v) = %v", c.now, got)
		}
	}
}

func time(sec int64) avtime.WorldTime { return avtime.WorldTime(sec) * avtime.Second }

func TestInjectorBeforeRead(t *testing.T) {
	clock := &fakeClock{}
	p := NewPlan(42).
		MustAdd(Fault{Kind: DeviceOutage, Target: "disk0", Start: time(10), Dur: time(5)}).
		MustAdd(Fault{Kind: TransientRead, Target: "disk1", Start: 0, Probability: 0.5})
	in := NewInjector(p, clock)

	// Outside the outage window, disk0 is healthy.
	if _, err := in.BeforeRead("disk0", device.Access{}, 4096); err != nil {
		t.Errorf("healthy read failed: %v", err)
	}
	// Inside it, every read fails hard.
	clock.now = time(12)
	for i := 0; i < 3; i++ {
		_, err := in.BeforeRead("disk0", device.Access{Seq: int64(i)}, 4096)
		if !errors.Is(err, device.ErrDeviceFailed) {
			t.Errorf("outage read %d: %v", i, err)
		}
		if Retryable(err) {
			t.Error("outage classified retryable")
		}
	}
	// disk1's transient faults hit roughly half the reads and are
	// retryable; an untargeted device is untouched.
	hits := 0
	for i := 0; i < 1000; i++ {
		if _, err := in.BeforeRead("disk1", device.Access{Seq: int64(i)}, 4096); err != nil {
			if !Retryable(err) {
				t.Fatalf("transient fault not retryable: %v", err)
			}
			hits++
		}
		if _, err := in.BeforeRead("disk9", device.Access{Seq: int64(i)}, 4096); err != nil {
			t.Fatalf("untargeted device faulted: %v", err)
		}
	}
	if hits < 400 || hits > 600 {
		t.Errorf("transient hits = %d of 1000 at p=0.5", hits)
	}
	counts := in.Counts()
	if counts[DeviceOutage] != 3 || counts[TransientRead] != int64(hits) {
		t.Errorf("counts = %v", counts)
	}
	if in.Total() != 3+int64(hits) {
		t.Errorf("total = %d", in.Total())
	}
}

func TestInjectorTransferFault(t *testing.T) {
	clock := &fakeClock{now: time(1)}
	p := NewPlan(7).
		MustAdd(Fault{Kind: LinkPartition, Target: "wan0", Start: time(100)}).
		MustAdd(Fault{Kind: LinkDegrade, Target: "lan0", Start: 0, Factor: 0.5}).
		MustAdd(Fault{Kind: LinkDegrade, Target: "lan0", Start: 0, Factor: 0.25}).
		MustAdd(Fault{Kind: ChunkLoss, Target: "lan0", Start: 0, Probability: 0.3})
	in := NewInjector(p, clock)

	tf := in.TransferFault("lan0", device.Access{}, 3072)
	if tf.Down {
		t.Error("lan0 partitioned; only wan0 is")
	}
	// Two overlapping degrades: the worst (largest slowdown) wins.
	if tf.SlowFactor != 4 {
		t.Errorf("slow factor = %v, want 4", tf.SlowFactor)
	}
	drops := 0
	for i := 0; i < 1000; i++ {
		if in.TransferFault("lan0", device.Access{Seq: int64(i)}, 3072).Drop {
			drops++
		}
	}
	if drops < 200 || drops > 400 {
		t.Errorf("drops = %d of 1000 at p=0.3", drops)
	}
	// The partition window.
	if in.TransferFault("wan0", device.Access{}, 3072).Down {
		t.Error("wan0 down before its window")
	}
	clock.now = time(200)
	if !in.TransferFault("wan0", device.Access{}, 3072).Down {
		t.Error("wan0 up inside its open-ended partition")
	}
	var zero netsim.TransferFault
	if got := in.TransferFault("lan9", device.Access{}, 3072); got != zero {
		t.Errorf("untargeted link faulted: %+v", got)
	}
}

func TestInjectorDeterministic(t *testing.T) {
	run := func(seed int64) (string, string) {
		clock := &fakeClock{}
		p := NewPlan(seed).
			MustAdd(Fault{Kind: TransientRead, Target: "d", Start: 0, Probability: 0.4}).
			MustAdd(Fault{Kind: ChunkLoss, Target: "l", Start: 0, Probability: 0.2})
		in := NewInjector(p, clock)
		trace := ""
		for i := 0; i < 200; i++ {
			clock.now = avtime.WorldTime(i) * avtime.Millisecond
			if _, err := in.BeforeRead("d", device.Access{Seq: int64(i)}, 1024); err != nil {
				trace += "R"
			}
			if in.TransferFault("l", device.Access{Seq: int64(i)}, 1024).Drop {
				trace += "D"
			}
			trace += "."
		}
		return trace, in.CountString()
	}
	t1, c1 := run(99)
	t2, c2 := run(99)
	if t1 != t2 || c1 != c2 {
		t.Error("same seed diverged")
	}
	t3, _ := run(100)
	if t1 == t3 {
		t.Error("different seed replayed the same trace")
	}
}

// TestInjectorDrawsAreOrderFree: every probabilistic decision is keyed by
// the operation's name, so asking for the same operations in a shuffled
// order yields the same verdict per (src, seq) and the same counts.
func TestInjectorDrawsAreOrderFree(t *testing.T) {
	type query struct {
		op string // "read", "swap" or "xfer"
		a  device.Access
	}
	var queries []query
	for src := int64(0); src < 4; src++ {
		for seq := int64(0); seq < 50; seq++ {
			for _, op := range []string{"read", "swap", "xfer"} {
				queries = append(queries, query{op, device.Access{Src: src, Seq: seq}})
			}
		}
	}
	run := func(qs []query) (map[query]string, map[Kind]int64) {
		p := NewPlan(5).
			MustAdd(Fault{Kind: TransientRead, Target: "d", Probability: 0.3}).
			MustAdd(Fault{Kind: DiscSwapFail, Target: "j", Probability: 0.5}).
			MustAdd(Fault{Kind: ChunkLoss, Target: "l", Probability: 0.2}).
			MustAdd(Fault{Kind: ChunkCorrupt, Target: "l", Probability: 0.2})
		in := NewInjector(p, &fakeClock{})
		verdicts := make(map[query]string, len(qs))
		for _, q := range qs {
			switch q.op {
			case "read":
				_, err := in.BeforeRead("d", q.a, 1024)
				verdicts[q] = fmt.Sprint(err != nil)
			case "swap":
				verdicts[q] = fmt.Sprint(in.BeforeSwap("j", q.a) != nil)
			case "xfer":
				verdicts[q] = fmt.Sprintf("%+v", in.TransferFault("l", q.a, 1024))
			}
		}
		return verdicts, in.Counts()
	}
	inOrder, inOrderCounts := run(queries)

	// Fisher-Yates with the draws' own mixer as the random source.
	shuffled := append([]query(nil), queries...)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := int(sched.Mix(0, uint64(i)) % uint64(i+1))
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	got, gotCounts := run(shuffled)
	if !reflect.DeepEqual(got, inOrder) {
		for _, q := range queries {
			if got[q] != inOrder[q] {
				t.Errorf("%s %+v: %s shuffled, %s in order", q.op, q.a, got[q], inOrder[q])
			}
		}
	}
	if !reflect.DeepEqual(gotCounts, inOrderCounts) {
		t.Errorf("counts %v shuffled, %v in order", gotCounts, inOrderCounts)
	}
	// The keyed draws still honour the probabilities.
	if n := inOrderCounts[TransientRead]; n < 40 || n > 80 {
		t.Errorf("transient reads = %d of 200 at p=0.3", n)
	}
	if n := inOrderCounts[DiscSwapFail]; n < 75 || n > 125 {
		t.Errorf("swap jams = %d of 200 at p=0.5", n)
	}
}

// TestInjectorPartitionShortCircuits: a transfer over a partitioned link
// fails outright, so loss that would have hit it is neither drawn nor
// counted.
func TestInjectorPartitionShortCircuits(t *testing.T) {
	clock := &fakeClock{now: time(1)}
	p := NewPlan(3).
		MustAdd(Fault{Kind: ChunkLoss, Target: "lan0", Start: 0, Dur: time(10), Probability: 1}).
		MustAdd(Fault{Kind: LinkPartition, Target: "lan0", Start: 0, Dur: time(10)})
	in := NewInjector(p, clock)
	for i := 0; i < 5; i++ {
		if got := in.TransferFault("lan0", device.Access{Seq: int64(i)}, 1024); got != (netsim.TransferFault{Down: true}) {
			t.Fatalf("transfer %d over the partition = %+v, want Down only", i, got)
		}
	}
	if got := in.Counts(); !reflect.DeepEqual(got, map[Kind]int64{LinkPartition: 5}) {
		t.Errorf("counts = %v, want link-partition:5 only", got)
	}
}

func TestRetryPolicyAccounting(t *testing.T) {
	transient := fmt.Errorf("wrapped: %w", device.ErrTransientRead)
	// Succeeds on the third attempt: two failed costs, two backoffs
	// (5ms then 10ms), one success cost.
	calls := 0
	op := func() (avtime.WorldTime, error) {
		calls++
		if calls < 3 {
			return 2 * avtime.Millisecond, transient
		}
		return 7 * avtime.Millisecond, nil
	}
	total, attempts, err := DefaultRetry.Do(op)
	if err != nil || attempts != 3 {
		t.Fatalf("attempts = %d, err = %v", attempts, err)
	}
	want := 2*2*avtime.Millisecond + (5+10)*avtime.Millisecond + 7*avtime.Millisecond
	if total != want {
		t.Errorf("total = %v, want %v", total, want)
	}

	// Exhaustion keeps the last error and never exceeds MaxAttempts.
	calls = 0
	_, attempts, err = DefaultRetry.Do(func() (avtime.WorldTime, error) {
		calls++
		return avtime.Millisecond, transient
	})
	if attempts != 3 || calls != 3 || !errors.Is(err, device.ErrTransientRead) {
		t.Errorf("exhaustion: attempts=%d calls=%d err=%v", attempts, calls, err)
	}

	// A non-retryable error stops on the first attempt.
	calls = 0
	_, attempts, err = DefaultRetry.Do(func() (avtime.WorldTime, error) {
		calls++
		return avtime.Millisecond, device.ErrDeviceFailed
	})
	if attempts != 1 || calls != 1 || !errors.Is(err, device.ErrDeviceFailed) {
		t.Errorf("hard fault: attempts=%d calls=%d err=%v", attempts, calls, err)
	}

	// MaxAttempts <= 1 means no retries; Multiplier < 1 clamps to 1.
	single := RetryPolicy{MaxAttempts: 0, Backoff: avtime.Second, Multiplier: 0.1}
	calls = 0
	_, attempts, _ = single.Do(func() (avtime.WorldTime, error) {
		calls++
		return 0, transient
	})
	if attempts != 1 || calls != 1 {
		t.Errorf("degenerate policy: attempts=%d calls=%d", attempts, calls)
	}
}

func TestCountString(t *testing.T) {
	in := NewInjector(NewPlan(1), &fakeClock{})
	if got := in.CountString(); got != "none" {
		t.Errorf("empty counts = %q", got)
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("out-of-range kind = %q", Kind(99))
	}
	f := Fault{Kind: LinkDegrade, Target: "lan0", Start: time(1), Dur: time(2), Factor: 0.25}
	if f.String() != `link-degrade on "lan0" from 1.000000s for 2.000000s x0.25` {
		t.Errorf("fault rendition = %q", f)
	}
}
