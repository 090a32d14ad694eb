package crpdaemon

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/crp"
	"repro/internal/obs"
)

// testDaemon returns an unstarted daemon suitable for driving Handle and
// dispatch directly, with a deterministic clock and a private registry.
func testDaemon(opts ...crp.TrackerOption) *Daemon {
	if len(opts) == 0 {
		opts = []crp.TrackerOption{crp.WithWindow(10)}
	}
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	n := 0
	d, err := New(crp.NewService(opts...), Config{
		Registry: obs.NewRegistry(),
		Now: func() time.Time {
			n++
			return base.Add(time.Duration(n) * time.Minute)
		},
	})
	if err != nil {
		panic(err)
	}
	return d
}

func do(t *testing.T, d *Daemon, req string) Response {
	t.Helper()
	var resp Response
	if err := json.Unmarshal(d.Handle([]byte(req)), &resp); err != nil {
		t.Fatalf("bad JSON reply: %v", err)
	}
	return resp
}

func seed(t *testing.T, d *Daemon) {
	t.Helper()
	for i := 0; i < 5; i++ {
		for node, reps := range map[string]string{
			"west-1": `["rw1","rw2"]`,
			"west-2": `["rw1","rw2"]`,
			"east-1": `["re1","re2"]`,
			"east-2": `["re1"]`,
		} {
			resp := do(t, d, `{"op":"observe","node":"`+node+`","replicas":`+reps+`}`)
			if !resp.OK {
				t.Fatalf("observe failed: %+v", resp)
			}
		}
	}
}

func TestDaemonObserveAndRatioMap(t *testing.T) {
	d := testDaemon()
	seed(t, d)
	resp := do(t, d, `{"op":"ratio_map","node":"west-1"}`)
	if !resp.OK || len(resp.RatioMap) != 2 {
		t.Fatalf("ratio_map = %+v", resp)
	}
	sum := 0.0
	for _, f := range resp.RatioMap {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("ratios sum to %v", sum)
	}
}

func TestDaemonSimilarity(t *testing.T) {
	d := testDaemon()
	seed(t, d)
	same := do(t, d, `{"op":"similarity","a":"west-1","b":"west-2"}`)
	cross := do(t, d, `{"op":"similarity","a":"west-1","b":"east-1"}`)
	if !same.OK || !cross.OK || same.Similarity == nil || cross.Similarity == nil {
		t.Fatalf("similarity replies: %+v / %+v", same, cross)
	}
	if *same.Similarity <= *cross.Similarity {
		t.Errorf("same-coast similarity %v not above cross-coast %v",
			*same.Similarity, *cross.Similarity)
	}
	if resp := do(t, d, `{"op":"similarity","a":"west-1","b":"ghost"}`); resp.OK {
		t.Error("similarity with unknown node should fail")
	}
}

func TestDaemonClosest(t *testing.T) {
	d := testDaemon()
	seed(t, d)
	resp := do(t, d, `{"op":"closest","client":"west-1","candidates":["west-2","east-1"],"k":2}`)
	if !resp.OK || len(resp.Ranked) != 2 {
		t.Fatalf("closest = %+v", resp)
	}
	if resp.Ranked[0].Node != "west-2" {
		t.Errorf("closest to west-1 = %q, want west-2", resp.Ranked[0].Node)
	}
}

func TestDaemonClosestCandidatesNilVsEmpty(t *testing.T) {
	d := testDaemon()
	seed(t, d)
	// An absent candidates field must rank against every known node
	// (regression: it used to become an empty non-nil slice, i.e. "no
	// candidates", and every wire query silently got zero results).
	all := do(t, d, `{"op":"closest","client":"west-1","k":3}`)
	if !all.OK || len(all.Ranked) != 3 {
		t.Fatalf("closest without candidates = %+v, want 3 ranked nodes", all)
	}
	// An explicit empty list still means "no candidates".
	none := do(t, d, `{"op":"closest","client":"west-1","candidates":[],"k":3}`)
	if !none.OK || len(none.Ranked) != 0 {
		t.Fatalf("closest with empty candidates = %+v, want no results", none)
	}
}

func TestDaemonClusterQueries(t *testing.T) {
	d := testDaemon()
	seed(t, d)
	same := do(t, d, `{"op":"same_cluster","node":"west-1"}`)
	if !same.OK {
		t.Fatalf("same_cluster = %+v", same)
	}
	found := false
	for _, n := range same.Nodes {
		if n == "west-2" {
			found = true
		}
		if n == "east-1" || n == "east-2" {
			t.Errorf("east node %q in west-1's cluster", n)
		}
	}
	if !found {
		t.Error("west-2 missing from west-1's cluster")
	}

	distinct := do(t, d, `{"op":"distinct_clusters","n":2}`)
	if !distinct.OK || len(distinct.Nodes) != 2 {
		t.Fatalf("distinct_clusters = %+v", distinct)
	}
	if distinct.Nodes[0][0] == distinct.Nodes[1][0] {
		t.Errorf("distinct cluster picks %v from the same coast", distinct.Nodes)
	}
}

func TestDaemonNodesAndErrors(t *testing.T) {
	d := testDaemon()
	seed(t, d)
	nodes := do(t, d, `{"op":"nodes"}`)
	if !nodes.OK || len(nodes.Nodes) != 4 {
		t.Fatalf("nodes = %+v", nodes)
	}
	if resp := do(t, d, `{"op":"warp"}`); resp.OK {
		t.Error("unknown op should fail")
	}
	if resp := do(t, d, `not json`); resp.OK {
		t.Error("bad JSON should fail")
	}
	if resp := do(t, d, `{"op":"observe","node":""}`); resp.OK {
		t.Error("observe with empty node should fail")
	}
}

// TestDaemonThresholdZeroIsHonored is the regression test for the old
// dispatch treating threshold 0 as "unset" and substituting the default:
// two node groups with cross-similarity strictly between 0 and 0.1 must
// cluster together at an explicit threshold 0 and apart at the default.
func TestDaemonThresholdZeroIsHonored(t *testing.T) {
	d := testDaemon(crp.WithWindow(0))
	observe := func(node string, reps []string) {
		t.Helper()
		raw, _ := json.Marshal(Request{Op: "observe", Node: node, Replicas: reps})
		var resp Response
		if err := json.Unmarshal(d.Handle(raw), &resp); err != nil || !resp.OK {
			t.Fatalf("observe %s: %+v err %v", node, resp, err)
		}
	}
	// c and x share only the replica "shared", which dominates both maps
	// but carries a sliver of each node's mass (the rest is spread over
	// unique replicas): cosine(x, c) ≈ 0.06 ∈ (0, 0.1). "shared" is
	// strongest in c, so c is the SMF center and x the assignable node.
	spread := func(node, shared string, sharedCount, uniques int) []string {
		reps := make([]string, 0, sharedCount+uniques)
		for i := 0; i < sharedCount; i++ {
			reps = append(reps, shared)
		}
		for i := 0; i < uniques; i++ {
			reps = append(reps, fmt.Sprintf("%s-r%03d", node, i))
		}
		return reps
	}
	observe("c", spread("c", "shared", 3, 97))
	observe("x", spread("x", "shared", 2, 98))

	sim := do(t, d, `{"op":"similarity","a":"x","b":"c"}`)
	if !sim.OK || sim.Similarity == nil || *sim.Similarity <= 0 || *sim.Similarity >= 0.1 {
		t.Fatalf("test wants cross-similarity in (0, 0.1), got %+v", sim)
	}

	atDefault := do(t, d, `{"op":"same_cluster","node":"x"}`)
	if !atDefault.OK || len(atDefault.Nodes) != 0 {
		t.Fatalf("default threshold should separate x and c: %+v", atDefault)
	}
	atZero := do(t, d, `{"op":"same_cluster","node":"x","threshold":0}`)
	if !atZero.OK || len(atZero.Nodes) != 1 || atZero.Nodes[0] != "c" {
		t.Fatalf("explicit threshold 0 must be honored, got %+v", atZero)
	}
}

// TestDaemonOversizedReplyIsStructuredError is the regression test for
// replies above the UDP payload limit being silently undeliverable: a ratio
// map wide enough to exceed 64 KiB of JSON must yield a structured error.
func TestDaemonOversizedReplyIsStructuredError(t *testing.T) {
	d := testDaemon(crp.WithWindow(0)) // unbounded window keeps every replica
	reps := make([]string, 4000)
	for i := range reps {
		reps[i] = fmt.Sprintf("replica-%05d.cdn.example.net", i)
	}
	// Seed in batches that respect MaxRequestSize: the oversize under test
	// is the reply, not the request.
	var resp Response
	for start := 0; start < len(reps); start += 1000 {
		end := min(start+1000, len(reps))
		raw, _ := json.Marshal(Request{Op: "observe", Node: "wide", Replicas: reps[start:end]})
		if err := json.Unmarshal(d.Handle(raw), &resp); err != nil || !resp.OK {
			t.Fatalf("observe [%d:%d]: %+v err %v", start, end, resp, err)
		}
	}

	reply := d.Handle([]byte(`{"op":"ratio_map","node":"wide"}`))
	if len(reply) > MaxReplySize {
		t.Fatalf("oversized reply escaped: %d bytes", len(reply))
	}
	if err := json.Unmarshal(reply, &resp); err != nil {
		t.Fatalf("reply not JSON: %v", err)
	}
	if resp.OK || !strings.Contains(resp.Error, "response too large") {
		t.Fatalf("want structured oversize error, got %+v", resp)
	}
	if got := d.oversized.Value(); got != 1 {
		t.Errorf("oversized counter = %d, want 1", got)
	}
}

func TestDaemonStatsOp(t *testing.T) {
	reg := obs.NewRegistry()
	d, pc := startDaemon(t, Config{Registry: reg}, crp.WithWindow(10))
	defer d.Close()

	c := dialDaemon(t, pc)
	defer c.close()
	if resp := c.roundTrip(t, `{"op":"observe","node":"n1","replicas":["r1"]}`); !resp.OK {
		t.Fatalf("observe: %+v", resp)
	}
	resp := c.roundTrip(t, `{"op":"stats"}`)
	if !resp.OK || resp.Stats == nil {
		t.Fatalf("stats = %+v", resp)
	}
	if got := resp.Stats.Counters["crpd.requests.observe"]; got != 1 {
		t.Errorf("observe counter = %d, want 1", got)
	}
	if h, ok := resp.Stats.Histograms["crpd.latency.observe"]; !ok || h.Count != 1 {
		t.Errorf("observe latency histogram missing or empty: %+v ok=%v", h, ok)
	}
	if g, ok := resp.Stats.Gauges["crpd.inflight"]; !ok || g < 0 {
		t.Errorf("inflight gauge = %d ok=%v", g, ok)
	}
}

// TestHandleRecordsWhatTheWorkerPathRecords: a socketless daemon's Handle
// bumps the same per-op instruments as the UDP worker path above, in either
// codec — so a mem-transport plan's stats reply shows the requests it served.
func TestHandleRecordsWhatTheWorkerPathRecords(t *testing.T) {
	for _, bin := range []bool{false, true} {
		t.Run(fmt.Sprintf("bin=%v", bin), func(t *testing.T) {
			var hooked []string
			d, err := New(crp.NewService(crp.WithWindow(10)), Config{
				Registry: obs.NewRegistry(),
				Hook:     func(op string) { hooked = append(hooked, op) },
			})
			if err != nil {
				t.Fatal(err)
			}
			send := func(req Request) Response {
				t.Helper()
				raw, err := EncodeRequest(&req, bin)
				if err != nil {
					t.Fatal(err)
				}
				resp, gotBin, err := DecodeResponse(d.Handle(raw))
				if err != nil || gotBin != bin {
					t.Fatalf("%s reply: bin=%v err=%v", req.Op, gotBin, err)
				}
				return resp
			}
			if resp := send(Request{Op: "observe", Node: "n1", Replicas: []string{"r1"}}); !resp.OK {
				t.Fatalf("observe: %+v", resp)
			}
			if resp := send(Request{Op: "ratio_map", Node: "nobody"}); resp.OK {
				t.Fatalf("ratio_map of an unknown node succeeded: %+v", resp)
			}
			resp := send(Request{Op: "stats"})
			if !resp.OK || resp.Stats == nil {
				t.Fatalf("stats = %+v", resp)
			}
			for name, want := range map[string]uint64{
				"crpd.requests.observe":   1,
				"crpd.requests.ratio_map": 1,
				"crpd.requests.stats":     1,
				"crpd.errors.observe":     0,
				"crpd.errors.ratio_map":   1,
			} {
				if got := resp.Stats.Counters[name]; got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			if h := resp.Stats.Histograms["crpd.latency.observe"]; h.Count != 1 {
				t.Errorf("observe latency histogram count = %d, want 1", h.Count)
			}
			if g := resp.Stats.Gauges["crpd.inflight"]; g != 1 {
				t.Errorf("inflight gauge while serving stats = %d, want 1", g)
			}
			if got := strings.Join(hooked, ","); got != "observe,ratio_map,stats" {
				t.Errorf("hook saw %q", got)
			}
		})
	}
}

// TestDaemonStatsExportsServiceMetrics pins the cross-layer contract: a
// daemon on the default registry (the production configuration) exports the
// crp.Service's own instruments — query-latency histograms, the shard-width
// gauge and the all-nodes scan's scored-node counter — through the stats op,
// with no extra wiring. (A custom Registry only carries the daemon's
// instruments; the service's live in the process-wide default registry.) The
// assertions are lower bounds because that registry is shared with every
// other service in the process, including the ones other tests here create.
func TestDaemonStatsExportsServiceMetrics(t *testing.T) {
	d, pc := startDaemon(t, Config{Registry: obs.Default()}, crp.WithWindow(10))
	defer d.Close()

	c := dialDaemon(t, pc)
	defer c.close()
	for _, req := range []string{
		`{"op":"observe","node":"n1","replicas":["r1"]}`,
		`{"op":"observe","node":"n2","replicas":["r1","r2"]}`,
		`{"op":"closest","client":"n1","k":3}`,
	} {
		if resp := c.roundTrip(t, req); !resp.OK {
			t.Fatalf("%s: %+v", req, resp)
		}
	}
	resp := c.roundTrip(t, `{"op":"stats"}`)
	if !resp.OK || resp.Stats == nil {
		t.Fatalf("stats = %+v", resp)
	}
	if h, ok := resp.Stats.Histograms["crp.service.latency.query"]; !ok || h.Count == 0 {
		t.Errorf("service query-latency histogram missing or empty: %+v ok=%v", h, ok)
	}
	if g := resp.Stats.Gauges["crp.service.shards"]; g <= 0 {
		t.Errorf("shard-width gauge = %d, want > 0", g)
	}
	// The all-nodes closest scored the nodes sharing a replica with n1:
	// n1 itself and n2. With crp.service.queries it gives the mean union.
	if got, ok := resp.Stats.Counters["crp.service.scan.scored"]; !ok || got < 2 {
		t.Errorf("crp.service.scan.scored = %d (present %v), want >= 2", got, ok)
	}
}

// TestDaemonStatsFitsReplyAtMaxShards is the regression for the oversized
// stats reply: at the store's maximum width (1024 shards) a per-shard gauge
// family once pushed the JSON snapshot past MaxReplySize, so the stats op
// answered "response too large". A daemon on the default registry at that
// width must still fit its stats in one reply.
func TestDaemonStatsFitsReplyAtMaxShards(t *testing.T) {
	svc := crp.NewServiceWithStore(crp.StoreConfig{Shards: 1024}, crp.WithWindow(10))
	reg := obs.Default() // the service's instruments live in the default registry
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Serve(pc, svc, Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for i := 0; i < 64; i++ {
		node := crp.NodeID(fmt.Sprintf("node-%03d", i))
		if err := svc.Observe(node, time.Unix(int64(i), 0), "r1", "r2"); err != nil {
			t.Fatal(err)
		}
	}
	wire := d.Handle([]byte(`{"op":"stats"}`))
	if len(wire) > MaxReplySize {
		t.Fatalf("stats reply is %d bytes, exceeds MaxReplySize %d", len(wire), MaxReplySize)
	}
	var resp Response
	if err := json.Unmarshal(wire, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Stats == nil {
		t.Fatalf("stats = %+v", resp)
	}
}

func TestDaemonOverUDP(t *testing.T) {
	d, pc := startDaemon(t, Config{}, crp.WithWindow(10))
	defer d.Close()

	c := dialDaemon(t, pc)
	defer c.close()
	resp := c.roundTrip(t, `{"op":"observe","node":"n1","replicas":["r1"]}`)
	if !resp.OK {
		t.Fatalf("observe over UDP = %+v", resp)
	}
}

// --- wire-test helpers ---

func startDaemon(t testing.TB, cfg Config, opts ...crp.TrackerOption) (*Daemon, net.PacketConn) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	d, err := Serve(pc, crp.NewService(opts...), cfg)
	if err != nil {
		pc.Close()
		t.Fatal(err)
	}
	return d, pc
}

type testClient struct {
	conn net.Conn
	buf  []byte
}

func dialDaemon(t *testing.T, pc net.PacketConn) *testClient {
	t.Helper()
	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	return &testClient{conn: conn, buf: make([]byte, 64*1024)}
}

func (c *testClient) close() { c.conn.Close() }

func (c *testClient) roundTrip(t *testing.T, req string) Response {
	t.Helper()
	if _, err := c.conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	return c.read(t)
}

// read waits up to 5 s for the next reply on c's connection.
func (c *testClient) read(t *testing.T) Response {
	t.Helper()
	if err := c.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := c.conn.Read(c.buf)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	var resp Response
	if err := json.Unmarshal(c.buf[:n], &resp); err != nil {
		t.Fatalf("bad JSON reply: %v", err)
	}
	return resp
}
