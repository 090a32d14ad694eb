// Package peering is the gossip/anti-entropy plane that lets N crpd daemons
// replicate tracker state and converge to an identical store. The paper's
// positioning service needs no central measurement infrastructure — any host
// observing CDN redirections can contribute — so the production shape is a
// federation of daemons, each ingesting local probe streams and gossiping
// the resulting node entries to its peers.
//
// Replication is last-writer-wins per node entry (crp.NodeMeta.Supersedes),
// carried by two complementary mechanisms:
//
//   - rumor mongering: every local Observe enqueues its node; each
//     Tick pushes the queued entries, with a decrementing hop budget (TTL),
//     to fanout randomly chosen peers. Fresh updates spread in O(log N)
//     rounds with high probability.
//   - push-pull anti-entropy: each Tick also sends one round-robin peer a
//     compact per-shard digest of the full replicated state. The receiver
//     answers with entry metadata for the differing shards; the initiator
//     then pushes entries it holds newer and pulls entries the peer holds
//     newer. Anti-entropy repairs whatever rumors miss (lost packets,
//     partitions, late joiners), giving eventual convergence under any
//     packet-loss rate below 100%.
//
// Nothing is ever deleted: a record, once written, only gains versions, and
// a frame that sets a deletion bit is refused. DESIGN.md "Gossip" develops
// the convergence argument. All sockets are plain net.PacketConns, so the
// fault plane's WrapPacketConn applies loss/dup/delay/reorder scenarios to
// gossip links exactly as it does to the daemon's query path.
package peering

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/crp"
	"repro/internal/binwire"
	"repro/internal/obs"
)

// Rumor-mongering constants. Every daemon, plan and benchmark runs these
// values.
const (
	// fanout is how many peers each rumor push targets.
	fanout = 2
	// rumorTTL is the initial rumor hop budget of a local mutation.
	rumorTTL = 3
)

// Config shapes one daemon's peering engine.
type Config struct {
	// Self is this daemon's ID, stamped as the origin of its local
	// mutations. Required, and must satisfy the wire ID bounds.
	Self string
	// Addr is the gossip listen address advertised in join messages.
	Addr string
	// Service is the replicated store. Required. New() takes ownership of
	// its replication hooks (SetOrigin/SetMutationHook).
	Service *crp.Service
	// Interval is the Tick cadence of Start's background loop. Default 1s.
	Interval time.Duration
	// Seed feeds the fanout-selection RNG; same seed + same event order =
	// same peer choices, which is what makes the bench harness replayable.
	Seed uint64
	// Now is the virtual clock. Default time.Now.
	Now func() time.Time
	// Resolve turns a peer address string into a net.Addr. Default UDP
	// resolution; the in-memory mesh substitutes its own.
	Resolve func(string) (net.Addr, error)
	// Registry receives the peering metrics. Default obs.Default().
	Registry *obs.Registry
}

// PeerInfo describes one known peer in a status report.
type PeerInfo struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// Lag is the differing-shard count the last time a digest from/about
	// this peer was compared; 0 means the stores matched.
	Lag int64 `json:"lag"`
}

// StatsSnapshot is a point-in-time copy of the engine's counters. The
// convergence harness reports these rather than obs counters because they
// are per-engine and unpolluted by other daemons in the process.
type StatsSnapshot struct {
	Rounds        uint64 `json:"rounds"`
	Msgs          uint64 `json:"msgs"`
	BadMsgs       uint64 `json:"badMsgs"`
	DeltasSent    uint64 `json:"deltasSent"`
	DeltasApplied uint64 `json:"deltasApplied"`
	DeltasStale   uint64 `json:"deltasStale"`
	DigestsSent   uint64 `json:"digestsSent"`
	DigestBytes   uint64 `json:"digestBytes"`
	Pulls         uint64 `json:"pulls"`
	Convergence   uint64 `json:"convergence"`
	ShapeMismatch uint64 `json:"shapeMismatch"`
	SendErrors    uint64 `json:"sendErrors"`
	OversizeMsgs  uint64 `json:"oversizeMsgs"`
}

// StatusReport is the peer-status op payload.
type StatusReport struct {
	Self          string        `json:"self"`
	Addr          string        `json:"addr,omitempty"`
	ShardCount    int           `json:"shardCount"`
	PendingRumors int           `json:"pendingRumors"`
	Peers         []PeerInfo    `json:"peers"`
	Stats         StatsSnapshot `json:"stats"`
}

// stat is a counter kept twice: a local atomic for per-engine reporting and
// an obs counter for the process-wide registry snapshot.
type stat struct {
	v atomic.Uint64
	c *obs.Counter
}

func (s *stat) add(n uint64) {
	s.v.Add(n)
	s.c.Add(n)
}

func (s *stat) inc() { s.add(1) }

// peerState is one known peer.
type peerState struct {
	id      string
	addrStr string
	addr    net.Addr
	lag     *obs.Gauge // peering.peer.<id>.lag
	lagV    atomic.Int64
}

// Peering is one daemon's gossip engine. Attach a socket, add peers (or
// Join), then either call Start for the background loop or drive Tick /
// HandleDatagram directly (the deterministic harness does the latter).
type Peering struct {
	cfg     Config
	svc     *crp.Service
	now     func() time.Time
	resolve func(string) (net.Addr, error)
	reg     *obs.Registry

	mu      sync.Mutex
	pc      net.PacketConn
	peers   map[string]*peerState
	order   []string // sorted peer IDs, rebuilt on membership change
	pending map[crp.NodeID]int
	rng     *rand.Rand
	rr      int // anti-entropy round-robin cursor
	started bool
	closed  bool
	done    chan struct{}
	wg      sync.WaitGroup

	rounds, msgs, badMsgs           stat
	deltasSent, deltasApplied       stat
	deltasStale, digestsSent        stat
	digestBytes, pulls, convergence stat
	shapeMismatch, sendErrors       stat
	oversize                        stat
}

// New builds a peering engine over cfg.Service and installs the service's
// replication hooks. Call before the service takes traffic.
func New(cfg Config) (*Peering, error) {
	if cfg.Service == nil {
		return nil, errors.New("peering: nil Service")
	}
	if cfg.Self == "" {
		return nil, errors.New("peering: empty Self ID")
	}
	if err := binwire.CheckID("self", cfg.Self, MaxIDBytes); err != nil {
		return nil, fmt.Errorf("peering: %w", err)
	}
	if sc := cfg.Service.ShardCount(); sc > MaxShardCount {
		// A digest message carries one word per shard; a wider store could
		// never complete an anti-entropy round, so refuse it up front instead
		// of silently livelocking (see the MaxShardCount sizing note).
		return nil, fmt.Errorf("peering: store has %d shards, wire limit %d", sc, MaxShardCount)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Resolve == nil {
		cfg.Resolve = func(s string) (net.Addr, error) { return net.ResolveUDPAddr("udp", s) }
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	p := &Peering{
		cfg:     cfg,
		svc:     cfg.Service,
		now:     cfg.Now,
		resolve: cfg.Resolve,
		reg:     cfg.Registry,
		peers:   make(map[string]*peerState),
		pending: make(map[crp.NodeID]int),
		rng:     rand.New(rand.NewSource(int64(cfg.Seed))),
		done:    make(chan struct{}),
	}
	for _, c := range []struct {
		s    *stat
		name string
	}{
		{&p.rounds, "peering.rounds"},
		{&p.msgs, "peering.msgs"},
		{&p.badMsgs, "peering.bad_msgs"},
		{&p.deltasSent, "peering.deltas_sent"},
		{&p.deltasApplied, "peering.deltas_applied"},
		{&p.deltasStale, "peering.deltas_stale"},
		{&p.digestsSent, "peering.digests_sent"},
		{&p.digestBytes, "peering.digest_bytes"},
		{&p.pulls, "peering.pulls"},
		{&p.convergence, "peering.convergence"},
		{&p.shapeMismatch, "peering.shape_mismatch"},
		{&p.sendErrors, "peering.send_errors"},
		{&p.oversize, "peering.oversize_msgs"},
	} {
		c.s.c = p.reg.Counter(c.name)
	}
	p.svc.SetOrigin(cfg.Self)
	p.svc.SetMutationHook(p.noteMutation)
	return p, nil
}

// noteMutation queues a locally mutated node for rumor propagation with a
// full hop budget. Installed as the service's mutation hook.
func (p *Peering) noteMutation(node crp.NodeID) {
	p.mu.Lock()
	p.pending[node] = rumorTTL
	p.mu.Unlock()
}

// Attach gives the engine its socket. The caller owns the conn's lifecycle
// (and typically routes it through faults.Plane.WrapPacketConn first).
func (p *Peering) Attach(pc net.PacketConn) {
	p.mu.Lock()
	p.pc = pc
	p.mu.Unlock()
}

// Start launches the background read loop and the gossip ticker. Attach
// must have been called.
func (p *Peering) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pc == nil {
		return errors.New("peering: Start before Attach")
	}
	if p.started {
		return errors.New("peering: already started")
	}
	p.started = true
	p.wg.Add(2)
	go p.readLoop(p.pc)
	go p.tickLoop()
	return nil
}

// Close stops the background goroutines. It does not close the attached
// socket (the caller owns it), but the read loop exits on the next read
// error or datagram after the done channel closes.
func (p *Peering) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.done)
	p.mu.Unlock()
	p.wg.Wait()
}

// readLoop drains the socket until Close (or a permanent socket error).
func (p *Peering) readLoop(pc net.PacketConn) {
	defer p.wg.Done()
	// One byte over the wire bound: a datagram that fills a MaxMsgSize
	// buffer exactly would be indistinguishable from a kernel-truncated
	// larger one, so the extra byte makes oversize detectable and
	// HandleDatagram drops (and counts) it instead of decoding garbage.
	buf := make([]byte, MaxMsgSize+1)
	for {
		select {
		case <-p.done:
			return
		default:
		}
		// A real UDP ReadFrom blocks indefinitely; a short deadline keeps
		// the loop responsive to Close without the caller having to close
		// the socket. MemMesh ignores deadlines and returns immediately.
		_ = pc.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		n, from, err := pc.ReadFrom(buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			select {
			case <-p.done:
				return
			default:
			}
			// Transient socket errors must not kill the loop (same rule as
			// the daemon's read loop); back off briefly and retry.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		p.HandleDatagram(buf[:n], from)
	}
}

// tickLoop runs Tick every Interval until Close.
func (p *Peering) tickLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-t.C:
			p.Tick(p.now())
		}
	}
}

// AddPeer registers a peer without the join handshake (static -peers lists
// and the deterministic harness). Adding self or an already-known ID is a
// no-op (the address is refreshed).
func (p *Peering) AddPeer(id, addr string) error {
	if id == "" || id == p.cfg.Self {
		return nil
	}
	if err := binwire.CheckID("peer", id, MaxIDBytes); err != nil {
		return fmt.Errorf("peering: %w", err)
	}
	a, err := p.resolve(addr)
	if err != nil {
		return fmt.Errorf("peering: resolve %q: %w", addr, err)
	}
	p.mu.Lock()
	p.addPeerLocked(id, addr, a)
	p.mu.Unlock()
	return nil
}

// addPeerLocked inserts or refreshes a peer. Caller holds p.mu.
func (p *Peering) addPeerLocked(id, addrStr string, addr net.Addr) {
	if ps, ok := p.peers[id]; ok {
		ps.addrStr, ps.addr = addrStr, addr
		return
	}
	p.peers[id] = &peerState{
		id: id, addrStr: addrStr, addr: addr,
		lag: p.reg.Gauge("peering.peer." + id + ".lag"),
	}
	p.order = append(p.order, id)
	sort.Strings(p.order)
}

// Join sends a join to addr, introducing this daemon. The peer is added on
// its join-ack; the ack also registers us on the remote side, so one Join
// meshes both directions.
func (p *Peering) Join(addr string) error {
	a, err := p.resolve(addr)
	if err != nil {
		return fmt.Errorf("peering: resolve %q: %w", addr, err)
	}
	_, err = p.send(a, Msg{Type: MsgJoin, From: p.cfg.Self, Addr: p.cfg.Addr})
	return err
}

// Status reports the engine's peers and counters.
func (p *Peering) Status() StatusReport {
	p.mu.Lock()
	peers := make([]PeerInfo, 0, len(p.order))
	for _, id := range p.order {
		ps := p.peers[id]
		peers = append(peers, PeerInfo{ID: ps.id, Addr: ps.addrStr, Lag: ps.lagV.Load()})
	}
	pending := len(p.pending)
	p.mu.Unlock()
	return StatusReport{
		Self:          p.cfg.Self,
		Addr:          p.cfg.Addr,
		ShardCount:    p.svc.ShardCount(),
		PendingRumors: pending,
		Peers:         peers,
		Stats:         p.Stats(),
	}
}

// Stats snapshots the engine-local counters.
func (p *Peering) Stats() StatsSnapshot {
	return StatsSnapshot{
		Rounds:        p.rounds.v.Load(),
		Msgs:          p.msgs.v.Load(),
		BadMsgs:       p.badMsgs.v.Load(),
		DeltasSent:    p.deltasSent.v.Load(),
		DeltasApplied: p.deltasApplied.v.Load(),
		DeltasStale:   p.deltasStale.v.Load(),
		DigestsSent:   p.digestsSent.v.Load(),
		DigestBytes:   p.digestBytes.v.Load(),
		Pulls:         p.pulls.v.Load(),
		Convergence:   p.convergence.v.Load(),
		ShapeMismatch: p.shapeMismatch.v.Load(),
		SendErrors:    p.sendErrors.v.Load(),
		OversizeMsgs:  p.oversize.v.Load(),
	}
}

// Tick runs one gossip round: rumor pushes of pending local mutations and one
// anti-entropy digest to the next peer in round-robin order. The background
// loop calls it on the Interval; the deterministic harness calls it directly.
// A round reads no clock, so the round time passed in only names the round
// for callers that drive a virtual clock.
func (p *Peering) Tick(time.Time) {
	p.rounds.inc()

	// Drain the rumor queue under the lock, then do the sends without it.
	p.mu.Lock()
	var queue map[crp.NodeID]int
	if len(p.pending) > 0 {
		queue = p.pending
		p.pending = make(map[crp.NodeID]int)
	}
	targetsPerTTL := func() []*peerState {
		// One independent fanout draw per TTL batch: rng.Perm over the
		// sorted peer order keeps the choice deterministic for a given
		// seed and call sequence.
		k := fanout
		if k > len(p.order) {
			k = len(p.order)
		}
		out := make([]*peerState, 0, k)
		for _, i := range p.rng.Perm(len(p.order))[:k] {
			out = append(out, p.peers[p.order[i]])
		}
		return out
	}
	var pushes []func() // sends, made after the lock is released
	if queue != nil && len(p.order) > 0 {
		// Partition the queue by remaining TTL (a message carries one TTL),
		// sorted for determinism; packDeltas chunks each batch into
		// datagrams, packed to the wire budget.
		byTTL := map[int][]crp.NodeID{}
		for node, ttl := range queue {
			byTTL[ttl] = append(byTTL[ttl], node)
		}
		for _, ttl := range slices.Sorted(maps.Keys(byTTL)) {
			nodes := byTTL[ttl]
			slices.Sort(nodes)
			chunks, skipped := packDeltas(p.svc, nodes)
			p.sendErrors.add(uint64(len(skipped)))
			if len(chunks) == 0 {
				continue
			}
			for _, ps := range targetsPerTTL() {
				pushes = append(pushes, func() { p.sendDeltas(ps, chunks, ttl) })
			}
		}
	}
	// Anti-entropy target: round-robin over the sorted peer order.
	var aeTarget *peerState
	if len(p.order) > 0 {
		aeTarget = p.peers[p.order[p.rr%len(p.order)]]
		p.rr++
	}
	p.mu.Unlock()

	for _, push := range pushes {
		push()
	}
	if aeTarget != nil {
		msg := Msg{
			Type:       MsgDigest,
			From:       p.cfg.Self,
			ShardCount: p.svc.ShardCount(),
			Digests:    p.svc.ShardDigests(),
		}
		if n, err := p.send(aeTarget.addr, msg); err == nil {
			p.digestsSent.inc()
			p.digestBytes.add(uint64(n))
		}
	}
}

// send encodes (enforcing the datagram bound — dropping beats sending a
// datagram the receiver is guaranteed to reject) and writes one message,
// reporting the encoded size.
func (p *Peering) send(addr net.Addr, msg Msg) (int, error) {
	raw, err := encodePeerMsg(&msg)
	if err != nil {
		p.sendErrors.inc()
		return 0, err
	}
	p.mu.Lock()
	pc := p.pc
	p.mu.Unlock()
	if pc == nil {
		p.sendErrors.inc()
		return 0, errors.New("peering: no socket attached")
	}
	if _, err := pc.WriteTo(raw, addr); err != nil {
		p.sendErrors.inc()
		return 0, err
	}
	return len(raw), nil
}

// sendDeltas sends each packDeltas chunk to one peer as one datagram.
func (p *Peering) sendDeltas(ps *peerState, chunks [][]crp.NodeDelta, ttl int) {
	for _, chunk := range chunks {
		msg := Msg{Type: MsgDelta, From: p.cfg.Self, Deltas: chunk, TTL: ttl}
		if _, err := p.send(ps.addr, msg); err == nil {
			p.deltasSent.add(uint64(len(chunk)))
		}
	}
}

// HandleDatagram processes one inbound gossip datagram synchronously. The
// read loop and the deterministic harness both call it.
func (p *Peering) HandleDatagram(raw []byte, from net.Addr) {
	p.msgs.inc()
	if len(raw) > MaxMsgSize {
		// Oversized — or kernel-truncated: the read loop's bound+1 buffer is
		// what makes a datagram bigger than the bound detectable at all. The
		// bytes never reach a decoder.
		p.oversize.inc()
		return
	}
	msg, err := decodePeerMsg(raw)
	if err != nil {
		p.badMsgs.inc()
		return
	}
	if msg.From == p.cfg.Self {
		return
	}
	switch msg.Type {
	case MsgJoin:
		p.handleJoin(msg, from, true)
	case MsgJoinAck:
		p.handleJoin(msg, from, false)
	case MsgDelta:
		p.handleDelta(msg)
	case MsgDigest:
		p.handleDigest(msg)
	case MsgDiff:
		p.handleDiff(msg)
	case MsgPull:
		p.handlePull(msg)
	}
}

// handleJoin registers the sender as a peer; for a join (not an ack) it
// answers join-ack so the handshake meshes both sides. The advertised Addr
// wins over the datagram source (NAT rewrites aside, the advertised address
// is the one the peer actually listens on); an empty Addr falls back to the
// source address.
func (p *Peering) handleJoin(msg Msg, from net.Addr, ack bool) {
	addrStr := msg.Addr
	var addr net.Addr
	if addrStr != "" {
		a, err := p.resolve(addrStr)
		if err != nil {
			p.badMsgs.inc()
			return
		}
		addr = a
	} else if from != nil {
		addr, addrStr = from, from.String()
	} else {
		p.badMsgs.inc()
		return
	}
	p.mu.Lock()
	p.addPeerLocked(msg.From, addrStr, addr)
	p.mu.Unlock()
	if ack {
		_, _ = p.send(addr, Msg{Type: MsgJoinAck, From: p.cfg.Self, Addr: p.cfg.Addr})
	}
}

// handleDelta applies pushed entries and, while hop budget remains,
// re-enqueues the applied ones for forwarding — the rumor-mongering step.
func (p *Peering) handleDelta(msg Msg) {
	var forward []crp.NodeID
	for _, d := range msg.Deltas {
		applied, err := p.svc.ApplyDelta(d)
		if err != nil {
			p.badMsgs.inc()
			continue
		}
		if !applied {
			p.deltasStale.inc()
			continue
		}
		p.deltasApplied.inc()
		if msg.TTL > 1 {
			forward = append(forward, d.Node)
		}
	}
	if len(forward) > 0 {
		p.mu.Lock()
		for _, node := range forward {
			if msg.TTL-1 > p.pending[node] {
				p.pending[node] = msg.TTL - 1
			}
		}
		p.mu.Unlock()
	}
}

// handleDigest compares the sender's per-shard digests against the local
// store and answers with a diff: the differing shard indices plus the local
// entry metadata for those shards, packed to the datagram byte budget (and
// the maxMetasPerMsg count cap) in whole shards only — a shard is claimed as
// covered only if every one of its metas is carried, because handleDiff
// reads absences from covered shards as "peer lacks this node". Shards that
// don't fit are left for later rounds, since anti-entropy repairs
// incrementally. Matching digests count toward the convergence counter. A
// digest from a sender that is not a peer is dropped unread, as handleDiff
// and handlePull drop theirs: it must neither count as convergence nor draw
// a reply.
func (p *Peering) handleDigest(msg Msg) {
	ps := p.peerByID(msg.From)
	if ps == nil {
		return
	}
	local := p.svc.ShardDigests()
	if msg.ShardCount != len(local) || len(msg.Digests) != len(local) {
		p.shapeMismatch.inc()
		return
	}
	var differing []int
	for i := range local {
		if local[i] != msg.Digests[i] {
			differing = append(differing, i)
		}
	}
	ps.lag.Set(int64(len(differing)))
	ps.lagV.Store(int64(len(differing)))
	if len(differing) == 0 {
		p.convergence.inc()
		return
	}
	reply := Msg{Type: MsgDiff, From: p.cfg.Self}
	count := maxMetasPerMsg
	budget := MaxMsgSize - binOverhead
	for _, shard := range differing {
		metas, err := p.svc.ShardMetas(shard)
		if err != nil {
			continue
		}
		cost := binwire.UvarintLen(uint64(shard))
		for i := range metas {
			cost += binMetaSize(&metas[i])
		}
		if len(reply.Shards) > 0 && (cost > budget || len(metas) > count) {
			break // this shard doesn't fit; later rounds will get to it
		}
		reply.Shards = append(reply.Shards, shard)
		reply.Metas = append(reply.Metas, metas...)
		budget -= cost
		count -= len(metas)
		if budget <= 0 || count <= 0 {
			break
		}
	}
	_, _ = p.send(ps.addr, reply)
}

// handleDiff reconciles the peer's metadata against the local store: local
// entries that supersede (or that the peer lacks) are pushed as deltas with
// a one-hop budget; remote entries that supersede (or that we lack) are
// pulled. The covered-shard list makes absences meaningful — a node missing
// from the peer's metas for a listed shard really is unknown to the peer.
func (p *Peering) handleDiff(msg Msg) {
	ps := p.peerByID(msg.From)
	if ps == nil {
		return
	}
	shardSet := make(map[int]bool, len(msg.Shards))
	for _, s := range msg.Shards {
		shardSet[s] = true
	}
	remote := make(map[crp.NodeID]crp.NodeMeta, len(msg.Metas))
	for _, m := range msg.Metas {
		remote[m.Node] = m
	}
	localKnown := make(map[crp.NodeID]crp.NodeMeta)
	localNodes := make([]crp.NodeID, 0, len(msg.Metas))
	for shard := range shardSet {
		locals, err := p.svc.ShardMetas(shard)
		if err != nil {
			continue
		}
		for _, lm := range locals {
			localKnown[lm.Node] = lm
			localNodes = append(localNodes, lm.Node)
		}
	}
	slices.Sort(localNodes)

	var push []crp.NodeID
	for _, node := range localNodes {
		rm, known := remote[node]
		if !known || localKnown[node].Supersedes(rm) {
			push = append(push, node)
		}
	}
	var pull []string
	for _, node := range slices.Sorted(maps.Keys(remote)) {
		if !shardSet[p.svc.ShardOf(node)] {
			continue // meta for a shard the diff doesn't claim to cover
		}
		lm, known := localKnown[node]
		if !known || remote[node].Supersedes(lm) {
			pull = append(pull, string(node))
		}
	}
	p.pushDeltas(ps, push)
	for nodes := range slices.Chunk(pull, maxPullPerMsg) {
		if _, err := p.send(ps.addr, Msg{Type: MsgPull, From: p.cfg.Self, Nodes: nodes}); err == nil {
			p.pulls.inc()
		}
	}
}

// handlePull answers a pull with the requested entries.
func (p *Peering) handlePull(msg Msg) {
	ps := p.peerByID(msg.From)
	if ps == nil {
		return
	}
	nodes := make([]crp.NodeID, 0, len(msg.Nodes))
	for _, n := range msg.Nodes {
		nodes = append(nodes, crp.NodeID(n))
	}
	p.pushDeltas(ps, nodes)
}

// pushDeltas exports and sends the named entries to one peer, packed to the
// wire budget by packDeltas, with a one-hop budget (anti-entropy repairs are
// point-to-point; rumor fan-out is Tick's job).
func (p *Peering) pushDeltas(ps *peerState, nodes []crp.NodeID) {
	if len(nodes) == 0 {
		return
	}
	slices.Sort(nodes)
	chunks, skipped := packDeltas(p.svc, nodes)
	p.sendErrors.add(uint64(len(skipped)))
	p.sendDeltas(ps, chunks, 1)
}

// peerByID looks up a known peer.
func (p *Peering) peerByID(id string) *peerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peers[id]
}
