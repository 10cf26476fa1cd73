package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"p2pmss"
)

// population is a set of live nodes the benchmark built itself, so it
// can see every frame at the node boundary: an always-on handler wrapper
// catches each watched session's first data frame at the leaf's node,
// and on traced passes the tracer wraps every Send and dispatch.
type population struct {
	nodes  []*p2pmss.LiveNode
	fabric *p2pmss.Fabric // nil over UDP
	tr     *tracer
	watch  sync.Map // session id → *watched
}

// watched is one open session the handler wrapper watches for.
type watched struct {
	node  int          // the leaf's node
	first atomic.Int64 // UnixNano of the first data frame, 0 before it
	drop  bool         // discard the session's data frames (self-test)
}

func (pop *population) wrapHandler(node int, h p2pmss.TransportHandler) p2pmss.TransportHandler {
	return func(m p2pmss.TransportMsg) {
		if m.Type == "data" {
			if v, ok := pop.watch.Load(m.Session); ok {
				if w := v.(*watched); w.node == node {
					if w.drop {
						return
					}
					w.first.CompareAndSwap(0, time.Now().UnixNano())
				}
			}
		}
		if pop.tr == nil {
			h(m)
			return
		}
		t0 := time.Now()
		h(m)
		pop.tr.handled(m, node, t0, time.Now())
	}
}

func (pop *population) wrapEndpoint(node int, ep p2pmss.TransportEndpoint) p2pmss.TransportEndpoint {
	if pop.tr == nil {
		return ep
	}
	return tracedEndpoint{ep, node, pop.tr}
}

// tracedEndpoint times every Send and counts frames by type.
type tracedEndpoint struct {
	p2pmss.TransportEndpoint
	node int
	tr   *tracer
}

func (e tracedEndpoint) Send(to string, m p2pmss.TransportMsg) error {
	t0 := time.Now()
	err := e.TransportEndpoint.Send(to, m)
	e.tr.sent(m, e.node, t0, time.Now())
	return err
}

func (pop *population) close() {
	for _, n := range pop.nodes {
		n.Close()
	}
}

// startUDP builds n nodes, each on its own UDP loopback socket, that
// find each other by gossip discovery bootstrapped off node 0, with no
// static roster.
func startUDP(n int, cfg func(i int) p2pmss.LiveNodeConfig, tr *tracer) (*population, error) {
	pop := &population{tr: tr}
	var eps []p2pmss.TransportEndpoint
	closeUnowned := func() {
		for _, ep := range eps[len(pop.nodes):] {
			ep.Close()
		}
	}
	trs := make([]p2pmss.LiveTransport, n)
	for i := 0; i < n; i++ {
		var bound atomic.Pointer[p2pmss.TransportHandler]
		ep, err := p2pmss.ListenUDP("127.0.0.1:0", func(m p2pmss.TransportMsg) {
			if h := bound.Load(); h != nil {
				(*h)(m)
			}
		})
		if err != nil {
			closeUnowned()
			return nil, err
		}
		eps = append(eps, ep)
		tr.instrument(ep)
		trs[i] = p2pmss.WithAttach(func(h p2pmss.TransportHandler) (p2pmss.TransportEndpoint, error) {
			wh := pop.wrapHandler(i, h)
			bound.Store(&wh)
			return pop.wrapEndpoint(i, ep), nil
		})
	}
	for i := 0; i < n; i++ {
		c := cfg(i)
		c.Discover = true
		c.Bootstrap = []string{eps[0].Name()}
		nd, err := p2pmss.NewLiveNode(c, trs[i])
		if err != nil {
			closeUnowned()
			pop.close()
			return nil, err
		}
		pop.nodes = append(pop.nodes, nd)
	}
	return pop, nil
}

// startFabric builds n nodes on one bounded in-process fabric (the
// default capacity and backpressure policy of StartLiveNodes), with
// gossip discovery bootstrapped off node 0 and no static roster.
func startFabric(n int, cfg func(i int) p2pmss.LiveNodeConfig, tr *tracer) (*population, error) {
	pop := &population{tr: tr, fabric: p2pmss.NewBoundedQueuedFabric(4096, p2pmss.QueueBlock)}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node%d", i)
		c := cfg(i)
		c.Discover = true
		c.Bootstrap = []string{"node0"}
		nd, err := p2pmss.NewLiveNode(c, p2pmss.WithAttach(func(h p2pmss.TransportHandler) (p2pmss.TransportEndpoint, error) {
			return pop.wrapEndpoint(i, pop.fabric.Endpoint(name, pop.wrapHandler(i, h))), nil
		}))
		if err != nil {
			pop.close()
			return nil, err
		}
		pop.nodes = append(pop.nodes, nd)
	}
	return pop, nil
}

// waitDiscovery blocks until every node's directory knows all nodes.
func (pop *population) waitDiscovery(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i, nd := range pop.nodes {
		cat, ok := nd.Directory().(*p2pmss.DirectoryCatalog)
		if !ok {
			return fmt.Errorf("node %d has no discovery catalog", i)
		}
		if err := cat.WaitRoster(len(pop.nodes), max(time.Until(deadline), time.Millisecond)); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	return nil
}

// errStalled marks a session that missed its deadline.
var errStalled = errors.New("missed its deadline")

// session is one leaf session the benchmark opens and verifies.
type session struct {
	id   string
	node int
	sc   p2pmss.LiveSessionConfig
	want []byte
	// due is when the session was due to open: the origin of every
	// latency it reports (the open call itself in a closed loop).
	due      time.Time
	deadline time.Duration // from due
	h        int           // parity interval, for the ideal receipt rate
	drop     bool
}

// sessionResult is what one session measured.
type sessionResult struct {
	err       error
	wrong     bool          // completed with bytes other than the source's
	latency   time.Duration // due → last byte
	first     time.Duration // due → first data frame at the leaf's node
	receipt   float64       // arrivals/s between first and last frame ÷ τ(h+1)/h
	arrivals  int64
	dup       int64
	recovered int
	packets   int
}

// open starts the session; the returned function waits for it to end
// (completion or deadline) and verifies it.
func (pop *population) open(s session) (func() sessionResult, error) {
	w := &watched{node: s.node, drop: s.drop}
	pop.watch.Store(s.id, w)
	s.sc.ID = p2pmss.SessionID(s.id)
	nd := pop.nodes[s.node]
	tr := pop.tr
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
		nd.Directory().Lookup(s.sc.ContentID)
		tr.lookedUp(s.id, s.node, t0, time.Now())
		t0 = time.Now()
	}
	ls, err := nd.Open(s.sc)
	if tr != nil {
		tr.opened(s.id, s.node, t0, time.Now())
	}
	if err != nil {
		pop.watch.Delete(s.id)
		return nil, err
	}
	return func() sessionResult {
		defer pop.watch.Delete(s.id)
		timer := time.NewTimer(time.Until(s.due.Add(s.deadline)))
		defer timer.Stop()
		select {
		case <-ls.Done():
		case <-timer.C:
			total, _, _ := ls.Stats()
			ls.Close()
			return sessionResult{err: fmt.Errorf("session %s %w after %v with %d arrivals", s.id, errStalled, s.deadline, total)}
		}
		done := time.Now()
		total, dup, rec := ls.Stats()
		if tr != nil {
			tr.waited(s.id, s.node, s.due, done)
		}
		r := sessionResult{latency: done.Sub(s.due), arrivals: total, dup: dup, recovered: rec,
			packets: (s.sc.ContentSize + s.sc.PacketSize - 1) / s.sc.PacketSize}
		if got, ok := ls.Bytes(); !ok || !bytes.Equal(got, s.want) {
			r.err, r.wrong = fmt.Errorf("session %s delivered wrong bytes", s.id), true
			return r
		}
		first := done
		if f := w.first.Load(); f != 0 {
			first = time.Unix(0, f)
		}
		r.first = first.Sub(s.due)
		if span := done.Sub(first).Seconds(); span > 0 && total > 1 {
			ideal := s.sc.Rate * float64(s.h+1) / float64(s.h)
			r.receipt = float64(total-1) / span / ideal
		}
		return r
	}, nil
}

// liveTally folds session results into an outcome.
type liveTally struct {
	mu                         sync.Mutex
	o                          *outcome
	arrivals, dup, recov, pkts float64
	failures                   []string
}

func (t *liveTally) add(r sessionResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.o.attempted++
	if r.err != nil {
		t.o.failed++
		if len(t.failures) < 5 {
			t.failures = append(t.failures, r.err.Error())
		}
		if r.wrong {
			t.o.violate("%v", r.err)
		}
		return
	}
	t.o.ops = append(t.o.ops, ms(r.latency))
	t.o.first = append(t.o.first, ms(r.first))
	t.o.receipt = append(t.o.receipt, r.receipt)
	t.arrivals += float64(r.arrivals)
	t.dup += float64(r.dup)
	t.recov += float64(r.recovered)
	t.pkts += float64(r.packets)
}

func (t *liveTally) openFailed(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.o.attempted++
	t.o.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, "open: "+err.Error())
	}
}

// minReceipt is the floor on a pass's median receipt ratio: a quarter
// of τ(h+1)/h. Live pacing delivers a third to a half of it on
// live-stream, depending on how promptly the host wakes sleeping threads
// (README.md, "Steadiness"), and nine tenths on live-swarm at the time of
// writing; below a quarter the leaf is starved, not merely slow.
const minReceipt = 0.25

// finish records the leaf counters and checks the receipt floor.
func (t *liveTally) finish() {
	o := t.o
	for _, s := range t.failures {
		o.notes = append(o.notes, "failed: "+s)
	}
	n := float64(max(1, len(o.ops)))
	o.layer = map[string]float64{
		"live.arrivals_per_session": t.arrivals / n,
		"live.leaf_dup_ratio":       t.dup / max(1, t.arrivals),
		"live.leaf_recovered_ratio": t.recov / max(1, t.pkts),
	}
	if len(o.ops) == 0 {
		o.violate("no session completed")
		return
	}
	if r := median(o.receipt); r < minReceipt {
		o.violate("median receipt ratio %.3f below the floor %.2f of τ(h+1)/h", r, minReceipt)
	}
}

// randomBytes returns n bytes from a stream seeded by seed.
func randomBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// setups runs build(i) for i < reps, timing each, closes every
// population but the last and returns it.
//
// A live set-up waits for gossip discovery, which converges after a
// whole number of announcement rounds, so set-up times come in steps of
// AnnounceInterval and which step a set-up lands on depends on its
// gossip seed. Each set-up therefore gets its own seed, and setup_s is
// their mean: it follows the share of set-ups that converge a round
// early, where a median would jump a whole step between runs.
func setups(reps int, o *outcome, build func(i int) (*population, error)) (*population, error) {
	o.setupMean = true
	var pop *population
	for i := 0; i < reps; i++ {
		if pop != nil {
			pop.close()
		}
		t0 := time.Now()
		p, err := build(i)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		pop = p
	}
	return pop, nil
}

// Set-ups per pass; setup_s is their mean (see setups).
const (
	streamSetups = 15
	swarmSetups  = 5
)

// ---- live-stream ------------------------------------------------------

// live-stream: a closed loop of 2 clients on 8 nodes over UDP loopback
// with gossip discovery, TCoP with H = 4 and h = 4, 1 MiB contents of
// 1 KiB packets at τ = 8,000 pkt/s. The per-packet data path dominates.
const (
	streamNodes    = 8
	streamClients  = 2
	streamContents = 4
	streamSize     = 1 << 20
	streamPacket   = 1024
	streamRate     = 8000
	streamH        = 4
	streamInterval = 4
	streamDeadline = 3 * time.Second
	streamAnnounce = 100 * time.Millisecond
)

func runLiveStream(p pass) (*outcome, error) {
	o := &outcome{}
	data := make([][]byte, streamContents)
	for j := range data {
		data[j] = randomBytes(streamSize, derive(p.seed, "live-stream/content", j))
	}
	popSeed := derive(p.seed, "live-stream/nodes", 0)
	pop, err := setups(streamSetups, o, func(k int) (*population, error) {
		dirSeed := derive(p.seed, "live-stream/directory", k)
		store := p2pmss.NewContentStore()
		for j, b := range data {
			store.Put(p2pmss.NewContent(fmt.Sprintf("c%d", j), b, streamPacket))
		}
		pop, err := startUDP(streamNodes, func(i int) p2pmss.LiveNodeConfig {
			return p2pmss.LiveNodeConfig{
				Store: store, H: streamH, Interval: streamInterval, Protocol: p2pmss.TCoP,
				AnnounceInterval: streamAnnounce, DirectoryTTL: 60 * time.Second, DirectorySeed: dirSeed,
				Seed: popSeed + int64(i) + 1,
			}
		}, p.tr)
		if err != nil {
			return nil, err
		}
		if err := pop.waitDiscovery(10 * time.Second); err != nil {
			pop.close()
			return nil, err
		}
		return pop, nil
	})
	if err != nil {
		return nil, err
	}
	defer pop.close()

	t := &liveTally{o: o}
	rcv0 := udpRcvbufErrors()
	p.tr.begin()
	probe := startRSS()
	cpu0, start := cpuTime(), time.Now()
	end := start.Add(p.measure)
	var wg sync.WaitGroup
	for c := 0; c < streamClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(derive(p.seed, "live-stream/client", c)))
			for k := 0; time.Now().Before(end); k++ {
				j := rng.Intn(streamContents)
				s := session{
					id: fmt.Sprintf("s%d-%d", c, k), node: c, want: data[j], due: time.Now(),
					deadline: streamDeadline, h: streamInterval,
					sc: p2pmss.LiveSessionConfig{
						ContentID: fmt.Sprintf("c%d", j), ContentSize: streamSize, PacketSize: streamPacket,
						Rate: streamRate, RepairAfter: 250 * time.Millisecond, RequestRetry: 200 * time.Millisecond,
					},
				}
				wait, err := pop.open(s)
				if err != nil {
					t.openFailed(err)
					continue
				}
				t.add(wait())
			}
		}(c)
	}
	wg.Wait()
	o.elapsed, o.cpu = time.Since(start), cpuTime()-cpu0
	o.peakRSS = probe.peak()
	p.tr.end(len(o.ops))
	t.finish()
	o.layer["transport.udp_rcvbuf_errors"] = udpRcvbufErrors() - rcv0
	mb := float64(len(o.ops)) * streamSize / (1 << 20)
	o.notes = append(o.notes,
		fmt.Sprintf("metric %-16s %14.4f ms  (= op_p50_ms)", "session_p50_ms", median(o.ops)),
		fmt.Sprintf("metric %-16s %14.4f ms  (= op_tail_ms)", "session_p90_ms", quantile(o.ops, 0.9)),
		fmt.Sprintf("metric %-16s %14.4f ms", "cpu_ms_per_MB", ms(o.cpu)/max(mb, 1e-9)),
		fmt.Sprintf("metric %-16s %14.4f MB/s", "goodput", mb/o.elapsed.Seconds()))
	return o, nil
}

// ---- live-swarm -------------------------------------------------------

// swarmParams shapes live-swarm: an open loop of session arrivals on 16
// nodes over the in-process bounded fabric with gossip discovery, 32
// contents each held by 4 nodes, TCoP with H = 3 and h = 2, 8 KiB
// contents of 128 B packets at τ = 800 pkt/s. Coordination dominates.
type swarmParams struct {
	nodes, contents int
	size, packet    int
	rate            float64
	h, interval     int
	arrivals        float64 // sessions per second
	deadline        time.Duration
	announce        time.Duration
	// stall, when ≥ 0, discards every data frame of that session so it
	// can never complete (benchmark self-test).
	stall int
}

var swarmDefaults = swarmParams{
	nodes: 16, contents: 32, size: 8 << 10, packet: 128, rate: 800, h: 3, interval: 2,
	arrivals: 100, deadline: 2 * time.Second, announce: 100 * time.Millisecond, stall: -1,
}

func runLiveSwarm(p pass) (*outcome, error) { return swarm(p, swarmDefaults) }

func swarm(p pass, sp swarmParams) (*outcome, error) {
	o := &outcome{}
	data := make([][]byte, sp.contents)
	holders := make([][]int, sp.contents)
	for j := range data {
		data[j] = randomBytes(sp.size, derive(p.seed, "live-swarm/content", j))
		for _, off := range []int{0, 5, 9, 13} {
			holders[j] = append(holders[j], (j+off)%sp.nodes)
		}
	}
	popSeed := derive(p.seed, "live-swarm/nodes", 0)
	pop, err := setups(swarmSetups, o, func(k int) (*population, error) {
		dirSeed := derive(p.seed, "live-swarm/directory", k)
		stores := make([]*p2pmss.ContentStore, sp.nodes)
		for i := range stores {
			stores[i] = p2pmss.NewContentStore()
		}
		for j, b := range data {
			c := p2pmss.NewContent(fmt.Sprintf("c%d", j), b, sp.packet)
			for _, i := range holders[j] {
				stores[i].Put(c)
			}
		}
		pop, err := startFabric(sp.nodes, func(i int) p2pmss.LiveNodeConfig {
			return p2pmss.LiveNodeConfig{
				Store: stores[i], H: sp.h, Interval: sp.interval, Protocol: p2pmss.TCoP,
				AnnounceInterval: sp.announce, DirectoryTTL: 60 * time.Second, DirectorySeed: dirSeed,
				Delta: 5 * time.Millisecond, HandshakeTimeout: 100 * time.Millisecond,
				ReapAfter: 300 * time.Millisecond, Seed: popSeed + int64(i) + 1,
			}
		}, p.tr)
		if err != nil {
			return nil, err
		}
		if err := pop.waitDiscovery(10 * time.Second); err != nil {
			pop.close()
			return nil, err
		}
		return pop, nil
	})
	if err != nil {
		return nil, err
	}
	defer pop.close()

	t := &liveTally{o: o}
	rng := rand.New(rand.NewSource(derive(p.seed, "live-swarm/arrivals", 0)))
	every := time.Duration(float64(time.Second) / sp.arrivals)
	var wg sync.WaitGroup
	var lateMax time.Duration
	p.tr.begin()
	probe := startRSS()
	cpu0, start := cpuTime(), time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * every)
		if due.Sub(start) >= p.measure {
			break
		}
		time.Sleep(time.Until(due))
		lateMax = max(lateMax, time.Since(due))
		j := rng.Intn(sp.contents)
		node := rng.Intn(sp.nodes)
		for contains(holders[j], node) {
			node = rng.Intn(sp.nodes)
		}
		s := session{
			id: fmt.Sprintf("s%d", k), node: node, want: data[j], due: due,
			deadline: sp.deadline, h: sp.interval, drop: k == sp.stall,
			sc: p2pmss.LiveSessionConfig{
				ContentID: fmt.Sprintf("c%d", j), ContentSize: sp.size, PacketSize: sp.packet,
				Rate: sp.rate, RepairAfter: 400 * time.Millisecond,
			},
		}
		wait, err := pop.open(s)
		if err != nil {
			t.openFailed(err)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.add(wait())
		}()
	}
	wg.Wait()
	o.elapsed, o.cpu = time.Since(start), cpuTime()-cpu0
	o.peakRSS = probe.peak()
	p.tr.end(len(o.ops))
	t.finish()
	o.layer["gen.late_ms_max"] = ms(lateMax)
	o.layer["transport.fabric_queue_drops"] = float64(pop.fabric.QueueDrops())
	o.notes = append(o.notes,
		fmt.Sprintf("metric %-16s %14.4f ms  (= op_p50_ms)", "session_p50_ms", median(o.ops)),
		fmt.Sprintf("metric %-16s %14.4f ms  (op_tail_ms is the p90)", "session_p99_ms", quantile(o.ops, 0.99)),
		fmt.Sprintf("metric %-16s %14.4f ms  (= first_p50_ms)", "first_packet_p50_ms", median(o.first)),
		fmt.Sprintf("metric %-16s %14.4f ms", "first_packet_p99_ms", quantile(o.first, 0.99)),
		fmt.Sprintf("metric %-16s %14.4f ms  (= cpu_ms_per_op)", "cpu_ms_per_session", ms(o.cpu)/float64(max(1, len(o.ops)))),
		fmt.Sprintf("generator ran at most %.2f ms late", ms(lateMax)))
	return o, nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
