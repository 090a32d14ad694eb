package crpdaemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/crp"
	"repro/internal/obs"
)

// seedWire populates the daemon's service with nodes grouped into metros so
// that clustering and similarity queries have real structure to chew on.
func seedWire(t *testing.T, d *Daemon, metros, perMetro int) []string {
	t.Helper()
	nodes := make([]string, 0, metros*perMetro)
	at := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	for m := 0; m < metros; m++ {
		reps := []crp.ReplicaID{
			crp.ReplicaID(fmt.Sprintf("r%d-a", m)),
			crp.ReplicaID(fmt.Sprintf("r%d-b", m)),
		}
		for i := 0; i < perMetro; i++ {
			node := fmt.Sprintf("m%d-n%d", m, i)
			nodes = append(nodes, node)
			for p := 0; p < 5; p++ {
				if err := d.svc.Observe(crp.NodeID(node), at.Add(time.Duration(p)*time.Minute), reps...); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return nodes
}

// TestConcurrentMixedOpsStress hammers a live daemon with cheap queries
// while clustering requests run on the heavy pool, under -race. Every reply
// must be a well-formed JSON envelope that is either OK or a structured
// error (busy/timeout) — never a dropped or garbled datagram.
func TestConcurrentMixedOpsStress(t *testing.T) {
	reg := obs.NewRegistry()
	d, pc := startDaemon(t, Config{Registry: reg}, crp.WithWindow(10))
	defer d.Close()
	nodes := seedWire(t, d, 6, 5)

	const (
		cheapClients = 6
		heavyClients = 2
		perClient    = 40
	)
	var (
		wg       sync.WaitGroup
		okCount  atomic.Int64
		errCount atomic.Int64
	)
	fail := make(chan string, cheapClients+heavyClients)

	runClient := func(id int, reqFor func(i int) string) {
		defer wg.Done()
		c := dialDaemon(t, pc)
		defer c.close()
		for i := 0; i < perClient; i++ {
			req := reqFor(i)
			if _, err := c.conn.Write([]byte(req)); err != nil {
				fail <- fmt.Sprintf("client %d write: %v", id, err)
				return
			}
			c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			n, err := c.conn.Read(c.buf)
			if err != nil {
				fail <- fmt.Sprintf("client %d read (req %s): %v", id, req, err)
				return
			}
			var resp Response
			if err := json.Unmarshal(c.buf[:n], &resp); err != nil {
				fail <- fmt.Sprintf("client %d garbled reply: %v", id, err)
				return
			}
			if resp.OK {
				okCount.Add(1)
			} else if resp.Error == "" {
				fail <- fmt.Sprintf("client %d: not-OK reply without error: %q", id, c.buf[:n])
				return
			} else {
				errCount.Add(1)
			}
		}
	}

	for cl := 0; cl < cheapClients; cl++ {
		wg.Add(1)
		go runClient(cl, func(i int) string {
			a, b := nodes[i%len(nodes)], nodes[(i*7+3)%len(nodes)]
			switch i % 3 {
			case 0:
				return fmt.Sprintf(`{"op":"similarity","a":"%s","b":"%s"}`, a, b)
			case 1:
				return fmt.Sprintf(`{"op":"closest","client":"%s","k":3}`, a)
			default:
				return `{"op":"nodes"}`
			}
		})
	}
	for cl := 0; cl < heavyClients; cl++ {
		wg.Add(1)
		go runClient(cheapClients+cl, func(i int) string {
			if i%2 == 0 {
				return `{"op":"distinct_clusters","n":4}`
			}
			return fmt.Sprintf(`{"op":"same_cluster","node":"%s"}`, nodes[i%len(nodes)])
		})
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}

	total := okCount.Load() + errCount.Load()
	if want := int64((cheapClients + heavyClients) * perClient); total != want {
		t.Errorf("answered %d requests, want %d", total, want)
	}
	if okCount.Load() == 0 {
		t.Error("no request succeeded under load")
	}

	// The instruments must have seen the traffic.
	snap := reg.Snapshot()
	for _, op := range []string{"similarity", "closest", "nodes", "distinct_clusters", "same_cluster"} {
		if snap.Counters["crpd.requests."+op] == 0 {
			t.Errorf("requests counter for %s is zero", op)
		}
		if snap.Histograms["crpd.latency."+op].Count == 0 {
			t.Errorf("latency histogram for %s is empty", op)
		}
	}
}

// holdFirst returns a Hook that parks the first handler of op, signalling
// started when it parks, and the function that releases it (idempotent, so
// a test can also defer it to let Close drain after a failure). Later
// handlers pass through.
func holdFirst(op string, started chan<- struct{}) (hook func(string), release func()) {
	var calls atomic.Int32
	var once sync.Once
	held := make(chan struct{})
	hook = func(name string) {
		if name == op && calls.Add(1) == 1 {
			started <- struct{}{}
			<-held
		}
	}
	return hook, func() { once.Do(func() { close(held) }) }
}

func waitStarted(t *testing.T, started <-chan struct{}) {
	t.Helper()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never started")
	}
}

// TestCloseDrainsInFlight holds a clustering handler in flight and checks
// that Close blocks until it finishes, then returns.
func TestCloseDrainsInFlight(t *testing.T) {
	started := make(chan struct{}, 1)
	hook, release := holdFirst("distinct_clusters", started)
	d, pc := startDaemon(t, Config{HeavyWorkers: 1, Hook: hook}, crp.WithWindow(10))
	seedWire(t, d, 3, 3)

	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"op":"distinct_clusters","n":2}`)); err != nil {
		t.Fatal(err)
	}
	waitStarted(t, started)

	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v while a handler was still in flight", err)
	case <-time.After(100 * time.Millisecond):
		// Close is (correctly) waiting on the drain.
	}

	release()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the handler finished")
	}
}

// TestServerBusyRejectsWhenQueueFull pins the intake's back-pressure: with
// the one cheap worker held and its one queue slot taken, the next request
// gets a structured "server busy" reply at once and is counted as rejected,
// and every request still gets exactly one reply.
func TestServerBusyRejectsWhenQueueFull(t *testing.T) {
	reg := obs.NewRegistry()
	started := make(chan struct{}, 1)
	hook, release := holdFirst("similarity", started)
	d, pc := startDaemon(t, Config{
		Registry:     reg,
		CheapWorkers: 1,
		QueueDepth:   1,
		Hook:         hook,
	}, crp.WithWindow(10))
	defer d.Close()
	defer release()
	seedWire(t, d, 1, 2)

	c := dialDaemon(t, pc)
	defer c.close()
	const req = `{"op":"similarity","a":"m0-n0","b":"m0-n1"}`
	if _, err := c.conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	waitStarted(t, started)
	if _, err := c.conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	if resp := c.roundTrip(t, req); resp.OK || resp.Error != "server busy: similarity queue full" {
		t.Fatalf("third request = %+v, want server busy: similarity queue full", resp)
	}
	release()
	for i := 0; i < 2; i++ {
		if resp := c.read(t); !resp.OK {
			t.Fatalf("held or queued request = %+v, want OK", resp)
		}
	}
	if got := reg.Counter("crpd.rejected").Value(); got != 1 {
		t.Errorf("crpd.rejected = %d, want 1", got)
	}
	if got := reg.Counter("crpd.errors.similarity").Value(); got != 1 {
		t.Errorf("crpd.errors.similarity = %d, want 1", got)
	}
}

// TestClusteringBacklogLeavesCheapPoolServing pins why clustering has a pool
// of its own: with one heavy worker held by a clustering request and a
// second one queued behind it, a similarity query still answers, and both
// clustering requests answer once the first is released.
func TestClusteringBacklogLeavesCheapPoolServing(t *testing.T) {
	started := make(chan struct{}, 1)
	hook, release := holdFirst("distinct_clusters", started)
	d, pc := startDaemon(t, Config{
		CheapWorkers: 1,
		HeavyWorkers: 1,
		Hook:         hook,
	}, crp.WithWindow(10))
	defer d.Close()
	defer release()
	seedWire(t, d, 3, 3)

	heavy := dialDaemon(t, pc)
	defer heavy.close()
	const cluster = `{"op":"distinct_clusters","n":2}`
	if _, err := heavy.conn.Write([]byte(cluster)); err != nil {
		t.Fatal(err)
	}
	waitStarted(t, started)
	if _, err := heavy.conn.Write([]byte(cluster)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); len(d.heavyQ) != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("second clustering request never queued")
		}
	}

	cheap := dialDaemon(t, pc)
	defer cheap.close()
	if resp := cheap.roundTrip(t, `{"op":"similarity","a":"m0-n0","b":"m0-n1"}`); !resp.OK {
		t.Fatalf("similarity behind a clustering backlog = %+v, want OK", resp)
	}
	if len(d.heavyQ) != 1 {
		t.Fatal("the queued clustering request ran before the first was released")
	}
	release()
	for i := 0; i < 2; i++ {
		if resp := heavy.read(t); !resp.OK {
			t.Fatalf("clustering request %d = %+v, want OK", i, resp)
		}
	}
}

// TestCloseConcurrentAndIdempotent is the regression test for the
// double-close race: many goroutines closing at once must neither panic nor
// deadlock, and later Closes return the same result.
func TestCloseConcurrentAndIdempotent(t *testing.T) {
	d, _ := startDaemon(t, Config{Registry: obs.NewRegistry()})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = d.Close()
		}()
	}
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Errorf("repeat Close = %v", err)
	}
}

// TestRequestTimeoutIsStructured pins the deadline behaviour: with an
// unmeetable deadline the client still gets a JSON reply, flagged timedOut.
func TestRequestTimeoutIsStructured(t *testing.T) {
	reg := obs.NewRegistry()
	d, pc := startDaemon(t, Config{Registry: reg, Timeout: time.Nanosecond}, crp.WithWindow(10))
	defer d.Close()

	c := dialDaemon(t, pc)
	defer c.close()
	resp := c.roundTrip(t, `{"op":"nodes"}`)
	if resp.OK || !resp.TimedOut || resp.Error == "" {
		t.Fatalf("want structured timeout reply, got %+v", resp)
	}
	if reg.Counter("crpd.timeouts").Value() == 0 {
		t.Error("timeout not counted")
	}
}

// --- transient-socket-error resilience (regression for the serve loop
// exiting on any non-timeout ReadFrom/WriteTo error) ---

type fakeRead struct {
	data []byte
	err  error
}

// fakePC is a scriptable PacketConn: reads are fed through a channel and a
// bounded number of write errors can be injected.
type fakePC struct {
	readCh    chan fakeRead
	writes    chan []byte
	failNext  atomic.Int32
	closed    chan struct{}
	closeOnce sync.Once
}

func newFakePC() *fakePC {
	return &fakePC{
		readCh: make(chan fakeRead, 16),
		writes: make(chan []byte, 16),
		closed: make(chan struct{}),
	}
}

type fakeAddr struct{}

func (fakeAddr) Network() string { return "udp" }
func (fakeAddr) String() string  { return "fake:0" }

func (f *fakePC) ReadFrom(p []byte) (int, net.Addr, error) {
	select {
	case r := <-f.readCh:
		if r.err != nil {
			return 0, nil, r.err
		}
		n := copy(p, r.data)
		return n, fakeAddr{}, nil
	case <-f.closed:
		return 0, nil, net.ErrClosed
	}
}

func (f *fakePC) WriteTo(p []byte, _ net.Addr) (int, error) {
	if f.failNext.Add(-1) >= 0 {
		return 0, errors.New("injected write failure")
	}
	buf := append([]byte(nil), p...)
	select {
	case f.writes <- buf:
	case <-f.closed:
	}
	return len(p), nil
}

func (f *fakePC) Close() error {
	f.closeOnce.Do(func() { close(f.closed) })
	return nil
}

func (f *fakePC) LocalAddr() net.Addr              { return fakeAddr{} }
func (f *fakePC) SetDeadline(time.Time) error      { return nil }
func (f *fakePC) SetReadDeadline(time.Time) error  { return nil }
func (f *fakePC) SetWriteDeadline(time.Time) error { return nil }

func TestServeSurvivesTransientSocketErrors(t *testing.T) {
	pc := newFakePC()
	reg := obs.NewRegistry()
	d, err := Serve(pc, crp.NewService(), Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// 1. A non-timeout read error must not kill the loop.
	pc.readCh <- fakeRead{err: errors.New("transient ICMP unreachable")}

	// 2. A failed reply to one client must not kill the loop either. Wait
	// until the failure has been consumed (and counted) so the injection
	// cannot hit the next request's reply instead.
	pc.failNext.Store(1)
	pc.readCh <- fakeRead{data: []byte(`{"op":"observe","node":"n1","replicas":["r1"]}`)}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("crpd.write_errors").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("injected write failure never surfaced in crpd.write_errors")
		}
		time.Sleep(time.Millisecond)
	}

	// 3. The next request must still be served end to end.
	pc.readCh <- fakeRead{data: []byte(`{"op":"nodes"}`)}
	var resp Response
	select {
	case wire := <-pc.writes:
		if err := json.Unmarshal(wire, &resp); err != nil {
			t.Fatalf("garbled reply: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon stopped serving after transient errors")
	}
	if !resp.OK || len(resp.Nodes) != 1 || resp.Nodes[0] != "n1" {
		t.Fatalf("post-error reply = %+v, want nodes [n1]", resp)
	}

	if err := d.Close(); err != nil {
		t.Errorf("Close = %v", err)
	}
	if got := reg.Counter("crpd.read_errors").Value(); got != 1 {
		t.Errorf("read_errors = %d, want 1", got)
	}
	if got := reg.Counter("crpd.write_errors").Value(); got != 1 {
		t.Errorf("write_errors = %d, want 1", got)
	}
}
