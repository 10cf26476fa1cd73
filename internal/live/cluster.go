package live

import (
	"fmt"
	"sync"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/flight"
	"p2pmss/internal/metrics"
	"p2pmss/internal/obs"
	"p2pmss/internal/protocol"
	"p2pmss/internal/transport"
)

// ClusterConfig wires a whole live session — n contents peers plus one
// leaf — in one call, over the in-memory fabric, TCP loopback, or UDP
// loopback.
type ClusterConfig struct {
	// Content is the content every contents peer holds.
	Content *content.Content
	// Peers is the number of contents peers.
	Peers int
	// H is the selection fanout; Interval the parity interval h.
	H, Interval int
	// Rate is the content rate in packets per second.
	Rate float64
	// Protocol selects TCoP (default) or DCoP.
	Protocol Protocol
	// UseTCP runs every peer on its own TCP loopback socket instead of
	// the in-memory fabric.
	UseTCP bool
	// UseUDP runs every peer on its own UDP loopback socket: real
	// datagram semantics — loss, duplication, and reordering are possible
	// and never reported to the sender. Mutually exclusive with UseTCP.
	UseUDP bool
	// Impair, when enabled, injects seeded loss/duplication/reordering
	// into every send — on the in-memory fabric or on each UDP socket
	// (TCP cannot be impaired; its stream would desynchronize). See
	// transport.Impairment.
	Impair transport.Impairment
	// QueueCap bounds the in-memory fabric's pending queue (default
	// 4096; negative leaves it unbounded) and QueuePolicy picks whether
	// a full queue blocks senders (default) or drops the newest message.
	// Ignored under TCP/UDP, where the kernel's socket buffers bound the
	// queue instead.
	QueueCap    int
	QueuePolicy transport.QueuePolicy
	// Delta is the assumed one-way latency for marking (default 10 ms).
	Delta time.Duration
	// RepairAfter is the leaf's stall-detection period (default 500 ms).
	RepairAfter time.Duration
	// RequestRetry is the leaf's request re-send deadline for requests a
	// datagram transport may silently lose. Zero defaults to half of
	// RepairAfter when the session runs on UDP or with impairment
	// enabled, and disables the retry loop otherwise (the fabric and TCP
	// report send failures, which Start's failover already handles).
	RequestRetry time.Duration
	// HandshakeTimeout and Retries tune the peers' churn tolerance (see
	// PeerConfig); zero picks the per-peer defaults.
	HandshakeTimeout time.Duration
	Retries          int
	// Seed seeds all peers deterministically; 0 uses the clock.
	Seed int64
	// Obs attaches the session's observers, shared by every peer and
	// the leaf (see PeerConfig.Obs). Obs.Metrics also instruments the
	// transport, ready to serve via metrics.DebugMux; Obs.Spans is
	// ready to export via span.WritePerfetto; Obs.Flight is dumpable via
	// Cluster.DumpFlight and served on /debug/flight.
	Obs obs.Observability
}

// Cluster is a running live session.
type Cluster struct {
	Peers  []*Peer
	Leaf   *Leaf
	fabric *transport.Fabric

	// Introspection state: the roster (peer id -> address), the run
	// labels, and the optional flight set, for Snapshot/DumpFlight and
	// the /debug/overlay and /debug/flight handlers.
	roster     []string
	protoName  string
	contentLen int
	flight     *flight.Set
	metrics    *metrics.Registry

	closeOnce sync.Once
}

// StartCluster builds and starts a live session: it wires the peers,
// creates the leaf, and sends the content request.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Content == nil {
		return nil, fmt.Errorf("live: cluster needs a content")
	}
	if cfg.Peers <= 0 {
		return nil, fmt.Errorf("live: cluster needs at least one peer")
	}
	if cfg.Delta == 0 {
		cfg.Delta = 10 * time.Millisecond
	}
	if cfg.RepairAfter == 0 {
		cfg.RepairAfter = 500 * time.Millisecond
	}
	if cfg.UseTCP && cfg.UseUDP {
		return nil, fmt.Errorf("live: UseTCP and UseUDP are mutually exclusive")
	}
	if cfg.UseTCP && cfg.Impair.Enabled() {
		return nil, fmt.Errorf("live: impairment needs a datagram transport (in-memory fabric or UDP), not TCP")
	}
	if cfg.RequestRetry == 0 && (cfg.UseUDP || cfg.Impair.Enabled()) {
		cfg.RequestRetry = cfg.RepairAfter / 2
	}

	c := &Cluster{}
	var roster []string
	transports := make([]Transport, cfg.Peers)
	var leafTransport Transport

	if cfg.UseTCP {
		// Bind listeners first so the roster is known before peers start.
		for i := range transports {
			lb := &lateBinder{}
			ep, err := transport.ListenTCP("127.0.0.1:0", lb.dispatch)
			if err != nil {
				c.Close()
				return nil, err
			}
			lb.ep = ep
			ep.Instrument(cfg.Obs.Metrics)
			roster = append(roster, ep.Name())
			transports[i] = WithAttach(func(h transport.Handler) (transport.Endpoint, error) {
				lb.bind(h)
				return lb.ep, nil
			})
		}
		leafLB := &lateBinder{}
		lep, err := transport.ListenTCP("127.0.0.1:0", leafLB.dispatch)
		if err != nil {
			c.Close()
			return nil, err
		}
		leafLB.ep = lep
		lep.Instrument(cfg.Obs.Metrics)
		leafTransport = WithAttach(func(h transport.Handler) (transport.Endpoint, error) {
			leafLB.bind(h)
			return leafLB.ep, nil
		})
	} else if cfg.UseUDP {
		imp := udpImpairment(cfg.Impair, cfg.Delta)
		for i := range transports {
			lb := &lateBinder{}
			ep, err := transport.ListenUDP("127.0.0.1:0", lb.dispatch)
			if err != nil {
				c.Close()
				return nil, err
			}
			lb.ep = ep
			ep.Instrument(cfg.Obs.Metrics)
			ep.SetImpairment(imp)
			roster = append(roster, ep.Name())
			transports[i] = WithAttach(func(h transport.Handler) (transport.Endpoint, error) {
				lb.bind(h)
				return lb.ep, nil
			})
		}
		leafLB := &lateBinder{}
		lep, err := transport.ListenUDP("127.0.0.1:0", leafLB.dispatch)
		if err != nil {
			c.Close()
			return nil, err
		}
		leafLB.ep = lep
		lep.Instrument(cfg.Obs.Metrics)
		lep.SetImpairment(imp)
		leafTransport = WithAttach(func(h transport.Handler) (transport.Endpoint, error) {
			leafLB.bind(h)
			return leafLB.ep, nil
		})
	} else {
		c.fabric = clusterFabric(cfg.QueueCap, cfg.QueuePolicy)
		c.fabric.Instrument(cfg.Obs.Metrics)
		c.fabric.SetImpairment(cfg.Impair)
		for i := 0; i < cfg.Peers; i++ {
			name := fmt.Sprintf("cp%d", i)
			roster = append(roster, name)
			transports[i] = WithFabric(c.fabric, name)
		}
		leafTransport = WithFabric(c.fabric, "leaf")
	}

	c.roster = roster
	c.flight = cfg.Obs.Flight
	c.metrics = cfg.Obs.Metrics
	c.protoName = string(cfg.Protocol)
	if c.protoName == "" {
		c.protoName = string(protocol.TCoP)
	}
	c.contentLen = int(cfg.Content.NumPackets())

	for i := 0; i < cfg.Peers; i++ {
		seed := cfg.Seed
		if seed != 0 {
			seed += int64(i) + 1
		}
		p, err := NewPeer(PeerConfig{
			Content:          cfg.Content,
			Roster:           roster,
			H:                cfg.H,
			Interval:         cfg.Interval,
			Delta:            cfg.Delta,
			Protocol:         cfg.Protocol,
			HandshakeTimeout: cfg.HandshakeTimeout,
			Retries:          cfg.Retries,
			Seed:             seed,
			Obs:              cfg.Obs,
		}, transports[i])
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Peers = append(c.Peers, p)
	}

	leafSeed := cfg.Seed
	if leafSeed != 0 {
		leafSeed += 1000003
	}
	leaf, err := NewLeaf(LeafConfig{
		Roster:       roster,
		H:            cfg.H,
		Interval:     cfg.Interval,
		Rate:         cfg.Rate,
		ContentSize:  cfg.Content.Size(),
		PacketSize:   cfg.Content.PacketSize(),
		RepairAfter:  cfg.RepairAfter,
		RequestRetry: cfg.RequestRetry,
		Seed:         leafSeed,
		Obs:          cfg.Obs,
		Introspect:   c.introspect,
	}, leafTransport)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Leaf = leaf
	if err := leaf.Start(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// CrashActive crash-stops up to n currently transmitting peers and
// returns how many were stopped.
func (c *Cluster) CrashActive(n int) int {
	killed := 0
	for _, p := range c.Peers {
		if killed >= n {
			break
		}
		if p.Active() {
			p.Close()
			killed++
		}
	}
	return killed
}

// Wait blocks until the leaf holds the whole content or the timeout
// elapses.
func (c *Cluster) Wait(timeout time.Duration) error { return c.Leaf.Wait(timeout) }

// Bytes returns the reassembled content once complete.
func (c *Cluster) Bytes() ([]byte, bool) { return c.Leaf.Bytes() }

// Close stops every peer and the leaf. It is idempotent and safe after
// CrashActive already stopped some peers (closing a closed peer is a
// no-op).
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		for _, p := range c.Peers {
			p.Close()
		}
		if c.Leaf != nil {
			c.Leaf.Close()
		}
	})
}

// clusterFabric builds the cluster's default in-process fabric: bounded
// FIFO queue (backpressure at 4096 pending messages) rather than a
// goroutine per message, so a runaway sender saturates a queue instead
// of the scheduler. queueCap <= -1 restores the unbounded queue; 0 picks
// the default.
func clusterFabric(queueCap int, policy transport.QueuePolicy) *transport.Fabric {
	if queueCap == 0 {
		queueCap = 4096
	}
	return transport.NewBoundedQueuedFabric(queueCap, policy)
}

// udpImpairment adapts an impairment policy for real sockets: a held
// (reordered) datagram on a link that goes quiet would otherwise never
// be released, so a wall-clock MaxHold of a few deltas is imposed when
// the caller left it unset.
func udpImpairment(imp transport.Impairment, delta time.Duration) transport.Impairment {
	if imp.Enabled() && imp.MaxHold == 0 {
		imp.MaxHold = 5 * delta
	}
	return imp
}

// lateBinder lets a listener (TCP or UDP) start before its peer exists:
// frames arriving before bind are dropped, as a real socket would drop
// traffic for a process still booting.
type lateBinder struct {
	ep transport.Endpoint

	mu sync.Mutex
	h  transport.Handler
}

func (l *lateBinder) bind(h transport.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *lateBinder) dispatch(m transport.Msg) {
	l.mu.Lock()
	h := l.h
	l.mu.Unlock()
	if h != nil {
		h(m)
	}
}
