// Command crpd runs the stand-alone CRP positioning service as a network
// daemon: applications report the CDN redirections they observe (e.g., from
// passively watching their own DNS traffic) and query relative positions,
// closest nodes and clusters. The protocol is one JSON object per UDP
// datagram — deliberately minimal, mirroring the paper's argument that a
// CRP service is easy to integrate through well-known interfaces.
// Programs can send compact binary frames instead (internal/crpdaemon);
// each reply uses its request's codec. {"op":"batch","batch":[...]}
// carries up to 64 requests per datagram and answers them in order. An
// optional "ns" scopes ratio_map, similarity and closest to one CDN.
//
// Usage:
//
//	crpd [-listen 127.0.0.1:5353] [-window 10] [-state FILE]
//	     [-cheap-workers N] [-heavy-workers N] [-queue N] [-timeout 5s]
//	     [-gossip-listen ADDR] [-peers ADDR,ADDR] [-gossip-interval 1s]
//	     [-daemon-id ID] [-aggregate BITS] [-fusion] [-fusion-weights NS=W,..]
//	     [-drift] [-drift-interval 30s]
//
// Request shapes:
//
//	{"op":"observe","node":"n1","replicas":["r1","r2"]}
//	{"op":"ratio_map","node":"n1"}
//	{"op":"similarity","a":"n1","b":"n2"}
//	{"op":"closest","client":"n1","candidates":["n2","n3"],"k":2}
//	{"op":"same_cluster","node":"n1","threshold":0.1}
//	{"op":"distinct_clusters","n":3,"threshold":0.1}
//	{"op":"nodes"}
//	{"op":"stats"}
//	{"op":"peer-join","addr":"host:port"}
//	{"op":"peer-status"}
//	{"op":"drift-status"}
//
// Every response carries {"ok":true,...} or {"ok":false,"error":"..."};
// replies to requests that overran the daemon's deadline additionally set
// "timedOut":true. The "stats" op returns the daemon's metrics snapshot —
// per-op counts, errors and latency histograms — as JSON.
//
// Requests are served by two bounded worker pools (cheap ops and SMF
// clustering ops), so clustering load never head-of-line-blocks the cheap
// queries; see internal/crpdaemon.
//
// With -state FILE set, the daemon restores FILE at startup and rewrites it on
// shutdown as the gossip delta stream (internal/peering WriteState), so it
// restarts as the replica it was, with -window re-applied; a record no delta
// can carry (e.g. past 4096 probes under -window 0) is left out and named.
//
// With -gossip-listen set, the daemon also joins a replication mesh: every
// locally observed or forgotten node gossips to its peers and anti-entropy
// keeps the stores converged (see internal/peering and DESIGN.md "Gossip"). Peers
// are seeded with -peers or at runtime through the peer-join op.
//
// With -aggregate BITS set, IPv4-addressed client nodes are aggregated by
// their /BITS prefix instead of getting one tracker each (the million-client
// mode; see DESIGN.md "Aggregate"): probes collapse into per-prefix ratio maps,
// queries fall back per-client only for divergent clients, and the "stats"
// op reports group count, fallback ratio and a state-size proxy under
// crp.aggregate.*. Prefix groups are neither gossiped nor written to -state;
// a demoted client, being a store record, is both.
//
// With -fusion set, the daemon runs the fused multi-CDN similarity kernel:
// replica IDs of the form "ns!replica" carry their CDN namespace, and every
// similarity/closest/clustering answer mixes per-CDN cosines under coverage
// weighting (optionally scaled per namespace with -fusion-weights
// "cdnA=1,cdnB=0.5"). Queries can also scope to one CDN with "ns":
//
//	{"op":"closest","client":"n1","k":2,"ns":"cdnA"}
//
// A daemon whose replicas carry no namespaces answers identically with
// -fusion on or off, so the flag is safe to enable ahead of multi-CDN
// traffic.
//
// With -drift set, the daemon runs the CDN-change detector (see
// internal/drift and DESIGN.md "Drift"): every -drift-interval it snapshots
// the compiled ratio-map stream per CDN namespace (and per prefix group
// when -aggregate is on) and flags mapping remaps and frozen-map staleness
// while rejecting client-side LDNS churn. Alarm counts export under
// drift.* in "stats"; the "drift-status" op returns the full detector
// report. The detector runs at drift.DefaultSensitivity with the fixed
// thresholds DESIGN.md "Drift" lists.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/crp"
	"repro/internal/crpdaemon"
	"repro/internal/drift"
	"repro/internal/peering"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "crpd:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	flags := flag.NewFlagSet("crpd", flag.ContinueOnError)
	listen := flags.String("listen", "127.0.0.1:5353", "UDP address to listen on")
	window := flags.Int("window", 10, "probe window per node (0 = unbounded)")
	statePath := flags.String("state", "", "state file (gossip delta frames): restored at startup, written on shutdown")
	cheapWorkers := flags.Int("cheap-workers", 0, "workers for cheap ops (0 = max(4, NumCPU))")
	heavyWorkers := flags.Int("heavy-workers", 0, "workers for clustering ops (0 = max(1, NumCPU/2))")
	queueDepth := flags.Int("queue", 0, "per-pool queue depth (0 = 256)")
	timeout := flags.Duration("timeout", 5*time.Second, "per-request deadline")
	gossipListen := flags.String("gossip-listen", "", "UDP address for the gossip mesh (empty = peering disabled)")
	peers := flags.String("peers", "", "comma-separated gossip addresses to join at startup")
	gossipInterval := flags.Duration("gossip-interval", time.Second, "gossip round cadence")
	daemonID := flags.String("daemon-id", "", "this daemon's mesh identity (default: the gossip listen address)")
	aggregate := flags.Int("aggregate", 0, "aggregate IPv4 clients by /BITS prefix instead of per-client trackers (0 = off)")
	fusion := flags.Bool("fusion", false, "enable the fused multi-CDN similarity kernel (namespaced replica IDs: \"ns!replica\")")
	fusionWeights := flags.String("fusion-weights", "", `per-namespace fusion weights, e.g. "cdnA=1,cdnB=0.5" (requires -fusion)`)
	driftOn := flags.Bool("drift", false, "run the CDN-change drift detector over the ratio-map snapshot stream")
	driftInterval := flags.Duration("drift-interval", drift.DefaultInterval, "snapshot cadence of the drift detector (requires -drift)")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *peers != "" && *gossipListen == "" {
		return errors.New("-peers requires -gossip-listen")
	}
	if *window < 0 {
		return fmt.Errorf("-window %d: must be >= 0 (0 = unbounded)", *window)
	}
	if *aggregate < 0 || *aggregate > 32 {
		return fmt.Errorf("-aggregate %d: prefix length must be in 0..32 (0 = off)", *aggregate)
	}
	for _, f := range []struct {
		name string
		v    time.Duration
	}{{"-timeout", *timeout}, {"-gossip-interval", *gossipInterval}, {"-drift-interval", *driftInterval}} {
		if f.v <= 0 {
			return fmt.Errorf("%s %s: must be > 0", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-cheap-workers", *cheapWorkers}, {"-heavy-workers", *heavyWorkers}, {"-queue", *queueDepth}} {
		if f.v < 0 {
			return fmt.Errorf("%s %d: must be >= 0 (0 = default)", f.name, f.v)
		}
	}

	var opts []crp.TrackerOption
	if *window > 0 {
		opts = append(opts, crp.WithWindow(*window))
	}
	if *fusionWeights != "" && !*fusion {
		return errors.New("-fusion-weights requires -fusion")
	}

	svc := crp.NewService(opts...)
	if *fusion {
		weights, err := parseFusionWeights(*fusionWeights)
		if err != nil {
			return err
		}
		if err := svc.EnableFusion(crp.FusionConfig{Weights: weights}); err != nil {
			return err
		}
		fmt.Println("crpd fusing multi-CDN signals")
	}
	if *aggregate > 0 {
		if err := svc.EnableAggregation(crp.AggregatorConfig{KeyOf: crp.PrefixKeyFunc(*aggregate)}); err != nil {
			return err
		}
		fmt.Printf("crpd aggregating clients by /%d prefix\n", *aggregate)
	}

	// Warm start: CRP's bootstrap time is ~100 minutes of history, so a
	// restarting daemon reloads its redirection state.
	if *statePath != "" {
		if err := loadState(svc, *statePath); err != nil {
			return err
		}
	}

	// One teardown for every exit from here on, a failed startup step and a
	// signal alike: the drift monitor, then peering and its socket, then,
	// once the daemon has served, the state save and Close, which drains
	// in-flight handlers.
	var (
		peer     *peering.Peering
		gossipPC net.PacketConn
		mon      *drift.Monitor
		d        *crpdaemon.Daemon
	)
	defer func() {
		if mon != nil {
			mon.Close()
		}
		if peer != nil {
			peer.Close()
		}
		if gossipPC != nil {
			gossipPC.Close()
		}
		if d == nil {
			return
		}
		if *statePath != "" {
			if err := saveState(svc, *statePath); err != nil {
				fmt.Fprintln(os.Stderr, "crpd: save state:", err)
			}
		}
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}()

	// The gossip engine must be wired before the service takes traffic so
	// every local mutation is stamped and queued for rumor propagation.
	if *gossipListen != "" {
		gossipPC, err = net.ListenPacket("udp", *gossipListen)
		if err != nil {
			return fmt.Errorf("gossip listen: %w", err)
		}
		id := *daemonID
		if id == "" {
			id = gossipPC.LocalAddr().String()
		}
		peer, err = peering.New(peering.Config{
			Self:     id,
			Addr:     gossipPC.LocalAddr().String(),
			Service:  svc,
			Interval: *gossipInterval,
		})
		if err != nil {
			return err
		}
		peer.Attach(gossipPC)
		if err := peer.Start(); err != nil {
			return err
		}
		fmt.Printf("crpd gossiping on %s as %q\n", gossipPC.LocalAddr(), id)
		for _, addr := range strings.Split(*peers, ",") {
			if addr = strings.TrimSpace(addr); addr == "" {
				continue
			}
			if err := peer.Join(addr); err != nil {
				fmt.Fprintf(os.Stderr, "crpd: join %s: %v\n", addr, err)
			}
		}
	}

	// The drift monitor taps the service's compiled snapshots on its own
	// cadence; it starts before the daemon takes traffic so the baseline
	// covers the whole run.
	if *driftOn {
		mon, err = drift.NewMonitor(svc, drift.DefaultSensitivity, drift.WithInterval(*driftInterval))
		if err != nil {
			return err
		}
		mon.Start()
		fmt.Printf("crpd watching for CDN drift every %s\n", *driftInterval)
	}

	pc, err := net.ListenPacket("udp", *listen)
	if err != nil {
		return err
	}
	d, err = crpdaemon.Serve(pc, svc, crpdaemon.Config{
		CheapWorkers: *cheapWorkers,
		HeavyWorkers: *heavyWorkers,
		QueueDepth:   *queueDepth,
		Timeout:      *timeout,
		Peering:      peer,
		Drift:        mon,
	})
	if err != nil {
		pc.Close()
		return err
	}
	fmt.Printf("crpd listening on %s (window %d)\n", d.Addr(), *window)

	// Serve until SIGINT/SIGTERM; the deferred teardown then snapshots and
	// stops serving.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	return nil
}

// parseFusionWeights parses the "ns=weight,ns=weight" flag form.
func parseFusionWeights(s string) (map[crp.Namespace]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[crp.Namespace]float64)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ns, w, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-fusion-weights: %q is not ns=weight", part)
		}
		v, err := strconv.ParseFloat(w, 64)
		if err != nil {
			return nil, fmt.Errorf("-fusion-weights: bad weight %q: %v", w, err)
		}
		if err := crp.Namespace(ns).Valid(); err != nil {
			return nil, fmt.Errorf("-fusion-weights: %v", err)
		}
		out[crp.Namespace(ns)] = v
	}
	return out, nil
}

func loadState(svc *crp.Service, path string) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil // first run
	}
	if err != nil {
		return err
	}
	if err := peering.ReadState(data, svc); err != nil {
		return fmt.Errorf("load state %q: %w", path, err)
	}
	fmt.Printf("crpd restored %d nodes from %s\n", len(svc.Nodes()), path)
	return nil
}

// saveState checkpoints svc to path as the gossip delta stream. Its error
// also names each record no delta can carry, which the checkpoint leaves out.
func saveState(svc *crp.Service, path string) error {
	var skipped error
	err := replaceFile(path, func(w io.Writer) (err error) {
		skipped, err = peering.WriteState(w, svc)
		return err
	})
	return errors.Join(err, skipped)
}

// replaceFile writes path through a tmp file, synced before it is renamed
// over path, then syncs the directory so the rename survives a crash too. A
// failed write leaves path as it was and no tmp file behind.
func replaceFile(path string, write func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = os.Remove(tmp) // the save already failed; nothing to remove once renamed
		}
	}()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}
