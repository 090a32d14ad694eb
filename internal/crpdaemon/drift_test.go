package crpdaemon

import (
	"encoding/json"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/crp"
	"repro/internal/drift"
	"repro/internal/obs"
)

// TestDriftStatusOp serves a drift monitor through the query protocol: the
// op must report the detector's frame count and streams identically over
// the JSON and binary codecs, and a daemon without a monitor must answer
// with a structured error.
func TestDriftStatusOp(t *testing.T) {
	svc := crp.NewServiceWithStore(crp.StoreConfig{Shards: 16}, crp.WithWindow(10))
	clock := time.Date(2006, 11, 12, 0, 0, 0, 0, time.UTC)
	mon, err := drift.NewMonitor(svc, drift.DefaultSensitivity,
		drift.WithRegistry(obs.NewRegistry()),
		drift.WithClock(func() time.Time { return clock }))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Serve(pc, svc, Config{Registry: obs.NewRegistry(), Drift: mon})
	if err != nil {
		pc.Close()
		t.Fatal(err)
	}
	defer d.Close()

	c := dialDaemon(t, pc)
	defer c.close()

	for i := 0; i < 6; i++ {
		svc.Observe(crp.NodeID("n0"), clock, crp.Qualify("cdnA", "r0"), crp.Qualify("cdnA", "r1"))
		svc.Observe(crp.NodeID("n1"), clock, crp.Qualify("cdnA", "r1"))
		clock = clock.Add(time.Minute)
		mon.Tick()
	}

	resp := c.roundTrip(t, `{"op":"drift-status"}`)
	if !resp.OK || resp.Drift == nil {
		t.Fatalf("drift-status: %+v", resp)
	}
	if resp.Drift.Frames != 6 {
		t.Fatalf("frames = %d, want 6", resp.Drift.Frames)
	}
	if len(resp.Drift.Streams) != 1 || resp.Drift.Streams[0].NS != "cdnA" {
		t.Fatalf("streams = %+v", resp.Drift.Streams)
	}
	if resp.Drift.Sensitivity != drift.DefaultSensitivity {
		t.Fatalf("sensitivity not echoed: %v", resp.Drift.Sensitivity)
	}

	// The binary codec must carry the same report.
	raw, err := EncodeRequest(&Request{Op: "drift-status"}, true)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	binResp, wasBin, err := DecodeResponse(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if !wasBin {
		t.Fatal("binary request answered in JSON")
	}
	if binResp.Drift == nil || !reflect.DeepEqual(binResp.Drift, resp.Drift) {
		t.Fatalf("binary drift report differs:\n bin  %+v\n json %+v", binResp.Drift, resp.Drift)
	}
}

func TestDriftStatusDisabled(t *testing.T) {
	d, pc := startDaemon(t, Config{}, crp.WithWindow(10))
	defer d.Close()
	c := dialDaemon(t, pc)
	defer c.close()
	resp := c.roundTrip(t, `{"op":"drift-status"}`)
	if resp.OK || resp.Error == "" {
		t.Fatalf("want structured error when drift is disabled, got %+v", resp)
	}
}

// TestDriftStatusJSONRoundTrip pins that the report survives the response
// envelope: crpq consumers re-encode it.
func TestDriftStatusJSONRoundTrip(t *testing.T) {
	st := drift.Status{Frames: 3}
	resp := Response{OK: true, Drift: &st}
	blob, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var back Response
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Drift == nil || back.Drift.Frames != 3 {
		t.Fatalf("round trip lost the drift report: %+v", back)
	}
}
