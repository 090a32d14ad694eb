package drift

import (
	"sync"
	"time"

	"repro/crp"
)

// DefaultInterval is the live monitor's frame cadence: one snapshot per CDN
// mapping epoch keeps the recent window a small multiple of the epoch
// without re-walking the store more often than its state can change.
const DefaultInterval = 30 * time.Second

// Monitor runs a Detector against a live service: every interval it taps
// Service.DriftFrame and feeds the detector. It is what crpd -drift
// constructs — Start launches the ticker goroutine, Tick exists for
// virtual-clock drivers (the scenario runner ticks it explicitly and never
// calls Start), and Status serves the drift-status op. All methods are safe
// for concurrent use.
type Monitor struct {
	mu       sync.Mutex
	det      *Detector
	svc      *crp.Service
	interval time.Duration
	now      func() time.Time
	stop     chan struct{}
	done     chan struct{}
	started  bool
}

// monitor-specific options ride on the shared options struct.
func (o *options) applyMonitorDefaults() {
	if o.interval <= 0 {
		o.interval = DefaultInterval
	}
	if o.now == nil {
		o.now = time.Now
	}
}

// WithInterval sets the live frame cadence (Start's ticker period).
func WithInterval(d time.Duration) Option {
	return func(o *options) { o.interval = d }
}

// WithClock substitutes the monitor's time source, the same seam the
// faults and peering planes expose for deterministic tests.
func WithClock(now func() time.Time) Option {
	return func(o *options) { o.now = now }
}

// NewMonitor wraps a fresh detector around svc. The monitor is inert until
// Start (or explicit Tick) is called.
func NewMonitor(svc *crp.Service, sensitivity float64, opts ...Option) (*Monitor, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	o.applyMonitorDefaults()
	det, err := New(sensitivity, opts...)
	if err != nil {
		return nil, err
	}
	return &Monitor{
		det:      det,
		svc:      svc,
		interval: o.interval,
		now:      o.now,
	}, nil
}

// Tick captures one frame at the monitor clock's current time and returns
// any events it fired.
func (m *Monitor) Tick() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.det.ObserveFrame(m.svc.DriftFrame(m.now()))
}

// Start launches the background ticker. Idempotent; Close stops it.
func (m *Monitor) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return
	}
	m.started = true
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(m.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.Tick()
			}
		}
	}(m.stop, m.done)
}

// Close stops the ticker goroutine, if Start launched one.
func (m *Monitor) Close() {
	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return
	}
	m.started = false
	stop, done := m.stop, m.done
	m.mu.Unlock()
	close(stop)
	<-done
}

// Status reports the underlying detector's state.
func (m *Monitor) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.det.Status()
}
