package crpdaemon

import (
	"bytes"
	"net"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/crp"
	"repro/internal/obs"
)

// servePathAllocBudget is what one binary similarity request may cost the
// whole process over loopback UDP: read, decode, queue hop, handler, encode
// and write, with the client's own socket calls. Both are the request's
// own: the decoded IDs' one backing and the handler's reply (the
// similarity's float); the hop around them allocates nothing.
const servePathAllocBudget = 2

// TestServePathAllocBudget pins the allocations of crpd's datagram path on a
// real *net.UDPConn: the addressing, the reply buffer and the ID backing
// cost the hop around the handler, not the handler, so a regression there
// shows here before it shows in the benchmark. It counts process mallocs
// around a closed loop (runtime.ReadMemStats), not through
// testing.AllocsPerRun, so the readers and workers run at the process's own
// GOMAXPROCS as a deployed daemon does.
func TestServePathAllocBudget(t *testing.T) {
	d, pc := startDaemon(t, Config{}, crp.WithWindow(10))
	defer d.Close()
	at := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	for _, node := range []crp.NodeID{"n1", "n2"} {
		if err := d.svc.Observe(node, at, "r1", "r2"); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := EncodeRequest(&Request{Op: "similarity", A: "n1", B: "n2"}, true)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, pc.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MaxReplySize+1)
	exchange := func() []byte {
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf[:n]
	}
	want := append([]byte(nil), exchange()...)
	if resp, _, err := DecodeResponse(want); err != nil || !resp.OK || resp.Similarity == nil {
		t.Fatalf("similarity reply = %+v, %v", resp, err)
	}

	// Every worker and reader takes a request or two before the count, so
	// each has grown its reply buffer.
	for i := 0; i < 500; i++ {
		exchange()
	}
	const n = 4000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if got := exchange(); !bytes.Equal(got, want) {
			t.Fatalf("reply %d = %x, want %x", i, got, want)
		}
	}
	runtime.ReadMemStats(&after)
	perReq := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.2f allocations per similarity request at GOMAXPROCS %d", perReq, runtime.GOMAXPROCS(0))
	// Half an allocation over the budget absorbs the runtime's own
	// background mallocs; one more allocation per request is twice that.
	if perReq > servePathAllocBudget+0.5 {
		t.Fatalf("a similarity request costs %.2f allocations over loopback UDP, budget %d", perReq, servePathAllocBudget)
	}
}

// TestRepliesReachIPv4AndIPv6Clients pins the reply addressing on every
// socket family a daemon listens on: an IPv6-only socket answers an IPv6
// client, and a wildcard (dual-stack) socket answers an IPv4 client, whose
// address it reads as IPv4-mapped IPv6, as well as an IPv6 one.
func TestRepliesReachIPv4AndIPv6Clients(t *testing.T) {
	probe, err := net.ListenPacket("udp6", "[::1]:0")
	if err != nil {
		t.Skipf("no IPv6 loopback: %v", err)
	}
	probe.Close()

	for _, c := range []struct {
		listen  string
		clients []string // network, host
	}{
		{"[::1]:0", []string{"udp6", "::1"}},
		{":0", []string{"udp4", "127.0.0.1", "udp6", "::1"}},
	} {
		pc, err := net.ListenPacket("udp", c.listen)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Serve(pc, crp.NewService(crp.WithWindow(10)), Config{Registry: obs.NewRegistry()})
		if err != nil {
			pc.Close()
			t.Fatal(err)
		}
		port := pc.LocalAddr().(*net.UDPAddr).Port
		for i := 0; i < len(c.clients); i += 2 {
			network, host := c.clients[i], c.clients[i+1]
			conn, err := net.Dial(network, net.JoinHostPort(host, strconv.Itoa(port)))
			if err != nil {
				d.Close()
				t.Fatal(err)
			}
			cl := &testClient{conn: conn, buf: make([]byte, 64*1024)}
			if resp := cl.roundTrip(t, `{"op":"nodes"}`); !resp.OK {
				t.Errorf("daemon on %s, %s client: reply %+v", c.listen, network, resp)
			}
			cl.close()
		}
		if err := d.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}
}
