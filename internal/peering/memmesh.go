package peering

import (
	"errors"
	"net"
	"sync"
	"time"
)

// MemMesh is an in-memory datagram fabric for deterministic multi-daemon
// tests and the gossip convergence harness: every address owns a FIFO queue,
// WriteTo appends to the destination's queue, ReadFrom pops the caller's
// own. There are no goroutines and no timing — a single-threaded pump that
// drains queues in a fixed order replays identically every run, which is
// what makes the bench's same-seed reruns byte-identical. Conns are plain
// net.PacketConns, so faults.Plane.WrapPacketConn layers loss/dup/reorder
// on top exactly as it does on a UDP socket.
type MemMesh struct {
	mu     sync.Mutex
	queues map[string][]memPacket
}

type memPacket struct {
	data []byte
	from memAddr
}

// NewMemMesh returns an empty fabric.
func NewMemMesh() *MemMesh {
	return &MemMesh{queues: make(map[string][]memPacket)}
}

// Conn returns the packet conn bound to addr, creating its queue.
func (m *MemMesh) Conn(addr string) net.PacketConn {
	m.mu.Lock()
	if _, ok := m.queues[addr]; !ok {
		m.queues[addr] = nil
	}
	m.mu.Unlock()
	return &memConn{mesh: m, addr: memAddr(addr)}
}

// Resolve is the peering Config.Resolve hook for mesh addresses.
func (m *MemMesh) Resolve(s string) (net.Addr, error) {
	if s == "" {
		return nil, errors.New("memmesh: empty address")
	}
	return memAddr(s), nil
}

// errMeshEmpty signals an empty receive queue. It satisfies net.Error with
// Timeout() true so read loops treat it like a deadline miss.
var errMeshEmpty = &meshEmptyError{}

type meshEmptyError struct{}

func (*meshEmptyError) Error() string   { return "memmesh: no datagram queued" }
func (*meshEmptyError) Timeout() bool   { return true }
func (*meshEmptyError) Temporary() bool { return true }

// memAddr is a mesh address ("d0", "d1", ...).
type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// memConn is one endpoint of the fabric.
type memConn struct {
	mesh *MemMesh
	addr memAddr
}

// ReadFrom pops the oldest datagram queued for this endpoint, or fails with
// a timeout-flagged error when none is queued (the fabric never blocks).
func (c *memConn) ReadFrom(b []byte) (int, net.Addr, error) {
	c.mesh.mu.Lock()
	q := c.mesh.queues[string(c.addr)]
	if len(q) == 0 {
		c.mesh.mu.Unlock()
		return 0, nil, errMeshEmpty
	}
	pkt := q[0]
	c.mesh.queues[string(c.addr)] = q[1:]
	c.mesh.mu.Unlock()
	n := copy(b, pkt.data)
	return n, pkt.from, nil
}

// WriteTo appends a copy of b to the destination queue. Unknown
// destinations absorb the datagram silently, like UDP.
func (c *memConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	dst := addr.String()
	pkt := memPacket{data: append([]byte(nil), b...), from: c.addr}
	c.mesh.mu.Lock()
	if _, ok := c.mesh.queues[dst]; ok {
		c.mesh.queues[dst] = append(c.mesh.queues[dst], pkt)
	}
	c.mesh.mu.Unlock()
	return len(b), nil
}

func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return c.addr }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }
