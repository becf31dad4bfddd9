package netsim

import (
	"errors"
	"sync"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/obs"
)

func testLink() *Link {
	return NewLink("lan0", 10*media.MBPerSecond, 2*avtime.Millisecond, 0, 42)
}

func TestLinkMetadata(t *testing.T) {
	l := testLink()
	if l.ID() != "lan0" || l.Capacity() != 10*media.MBPerSecond ||
		l.Latency() != 2*avtime.Millisecond || l.MaxJitter() != 0 {
		t.Error("link metadata wrong")
	}
}

func TestConnectAdmission(t *testing.T) {
	l := testLink()
	c1, err := l.Connect(6 * media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Connect(6 * media.MBPerSecond); !errors.Is(err, ErrBandwidth) {
		t.Errorf("over-subscription error = %v", err)
	}
	if l.Reserved() != 6*media.MBPerSecond {
		t.Error("accounting wrong")
	}
	c2, err := l.Connect(4 * media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()
	c2.Close()
	if l.Reserved() != 0 {
		t.Error("close did not release bandwidth")
	}
	if _, err := l.Connect(0); err == nil {
		t.Error("zero-rate connection accepted")
	}
	if _, err := l.Connect(-1); err == nil {
		t.Error("negative-rate connection accepted")
	}
}

func TestTransferTiming(t *testing.T) {
	l := testLink()
	c, err := l.Connect(1 * media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// 1 MB at the reserved 1 MB/s = 1s, plus 2ms propagation, no jitter.
	d, err := c.TransferChunk(1_000_000)
	dt := d.Time
	if err != nil {
		t.Fatal(err)
	}
	if dt != avtime.Second+2*avtime.Millisecond {
		t.Errorf("Transfer = %v", dt)
	}
	if c.BytesCarried() != 1_000_000 || c.messages != 1 {
		t.Error("transfer accounting wrong")
	}
	if _, err := c.TransferChunk(-1); err == nil {
		t.Error("negative transfer accepted")
	}
	if c.Rate() != media.MBPerSecond || c.link != l {
		t.Error("conn metadata wrong")
	}
}

func TestTransferOnClosedConn(t *testing.T) {
	l := testLink()
	c, err := l.Connect(media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // double close is a no-op
	if c.open {
		t.Error("closed conn reports open")
	}
	if _, err := c.TransferChunk(10); err == nil {
		t.Error("transfer on closed conn succeeded")
	}
	if l.Reserved() != 0 {
		t.Error("double close corrupted accounting")
	}
}

func TestJitterBoundedAndDeterministic(t *testing.T) {
	mk := func() *Conn {
		l := NewLink("j", media.MBPerSecond, 0, 5*avtime.Millisecond, 99)
		c, err := l.Connect(media.MBPerSecond)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1, c2 := mk(), mk()
	for i := 0; i < 100; i++ {
		r1, err := c1.TransferChunk(0)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := c2.TransferChunk(0)
		if err != nil {
			t.Fatal(err)
		}
		d1, d2 := r1.Time, r2.Time
		if d1 != d2 {
			t.Fatalf("transfer %d: jitter not deterministic (%v vs %v)", i, d1, d2)
		}
		if d1 < 0 || d1 > 5*avtime.Millisecond {
			t.Fatalf("jitter %v outside [0, 5ms]", d1)
		}
	}
}

func TestConcurrentAdmission(t *testing.T) {
	l := NewLink("big", 100*media.BytePerSecond, 0, 0, 1)
	var wg sync.WaitGroup
	grants := make(chan *Conn, 200)
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c, err := l.Connect(media.BytePerSecond); err == nil {
				grants <- c
			}
		}()
	}
	wg.Wait()
	close(grants)
	var n int
	for range grants {
		n++
	}
	if n != 100 {
		t.Errorf("granted %d connections of capacity 100", n)
	}
}

func TestNetworkRegistry(t *testing.T) {
	n := NewNetwork()
	if err := n.AddLink(testLink()); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink(testLink()); err == nil {
		t.Error("duplicate link accepted")
	}
	if err := n.AddLink(NewLink("atm0", media.GBPerSecond, 0, 0, 7)); err != nil {
		t.Fatal(err)
	}
	if l, ok := n.Link("lan0"); !ok || l.ID() != "lan0" {
		t.Error("Link lookup failed")
	}
	if _, ok := n.Link("nope"); ok {
		t.Error("missing link found")
	}
	if ids := n.Links(); len(ids) != 2 || ids[0] != "atm0" {
		t.Errorf("Links = %v", ids)
	}
}

func TestLinkConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero capacity":    func() { NewLink("l", 0, 0, 0, 0) },
		"negative latency": func() { NewLink("l", 1, -1, 0, 0) },
		"negative jitter":  func() { NewLink("l", 1, 0, -1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// stubHook applies one fault to every transfer.
type stubHook struct{ f TransferFault }

func (h stubHook) TransferFault(string, device.Access, int64) TransferFault { return h.f }

// TestLinkSinkReinstall: a link counts into the sink installed last.
// After a second SetSink, transfers, bytes, drops, corruptions and
// partitions reach only the second collector; after SetSink(nil),
// neither.
func TestLinkSinkReinstall(t *testing.T) {
	l := testLink()
	c, err := l.Connect(media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	transfer := func() {
		for _, f := range []TransferFault{{}, {Drop: true}, {Corrupt: true}, {Down: true}} {
			l.SetFaultHook(stubHook{f})
			if _, err := c.TransferChunk(100); err != nil && !errors.Is(err, ErrLinkDown) {
				t.Fatal(err)
			}
		}
	}
	want := "== metrics ==\n" +
		"counter net.lan0.bytes                   300\n" +
		"counter net.lan0.corrupted               1\n" +
		"counter net.lan0.down                    1\n" +
		"counter net.lan0.dropped                 1\n" +
		"counter net.lan0.transfers               3\n"
	first, second := obs.NewCollector(), obs.NewCollector()
	l.SetSink(first)
	transfer()
	l.SetSink(second)
	transfer()
	l.SetSink(nil)
	transfer()
	for name, col := range map[string]*obs.Collector{"first": first, "second": second} {
		if got := col.Snapshot().MetricsText(); got != want {
			t.Errorf("%s sink:\n%s\nwant\n%s", name, got, want)
		}
	}
}
