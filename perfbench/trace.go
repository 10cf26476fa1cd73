package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"p2pmss"
)

// frameTypes are the live wire's message types.
var frameTypes = []string{"request", "control", "confirm", "commit", "data", "repair", "join", "announce"}

// cpuLayers are the buckets CPU profile samples are attributed to: the
// repo packages, math/rand seeding, the JSON codec, the garbage
// collector and system calls, plus everything else.
var cpuLayers = []string{
	"engine", "coord", "des", "fluid", "simnet", "parity", "seq", "content",
	"transport", "codec_json", "live", "disco", "gossip", "rng_seed", "gc", "syscall", "other",
}

// perLayer lists the traced run's metrics in BENCHMARK.json order.
// Every traced run reports all of them; a layer a workload does not
// reach reads 0.
var perLayer = func() []struct{ name, unit string } {
	ms := []struct{ name, unit string }{
		{"coord.run_ms_p50", "ms"}, {"coord.run_ms_max", "ms"},
		{"coord.control_pkts", "count"}, {"coord.data_pkts", "count"},
	}
	for _, l := range cpuLayers {
		ms = append(ms, struct{ name, unit string }{"cpu." + l, "share"})
	}
	for _, t := range frameTypes {
		ms = append(ms, struct{ name, unit string }{"transport.frames." + t, "count"})
	}
	for _, t := range frameTypes {
		ms = append(ms, struct{ name, unit string }{"transport.bytes_per_frame." + t, "B"})
	}
	ms = append(ms,
		struct{ name, unit string }{"transport.wire_bytes_per_frame", "B"},
		struct{ name, unit string }{"transport.send_us_p50", "us"},
		struct{ name, unit string }{"transport.send_us_p99", "us"},
		struct{ name, unit string }{"transport.udp_rcvbuf_errors", "count"},
		struct{ name, unit string }{"transport.fabric_queue_drops", "count"})
	for _, t := range frameTypes {
		ms = append(ms, struct{ name, unit string }{"live.handle_us_p50." + t, "us"})
	}
	ms = append(ms,
		struct{ name, unit string }{"live.open_us_p50", "us"},
		struct{ name, unit string }{"disco.lookup_us_p50", "us"},
		struct{ name, unit string }{"live.leaf_dup_ratio", "ratio"},
		struct{ name, unit string }{"live.leaf_recovered_ratio", "ratio"},
		struct{ name, unit string }{"live.arrivals_per_session", "count"},
		struct{ name, unit string }{"gossip.announce_frames_per_s", "1/s"},
		struct{ name, unit string }{"go.alloc_MB", "MB"},
		struct{ name, unit string }{"go.gc_cycles", "count"},
		struct{ name, unit string }{"gen.late_ms_max", "ms"},
		struct{ name, unit string }{"trace.overhead.op_p50_ms", "ms"},
		struct{ name, unit string }{"trace.overhead.first_p50_ms", "ms"},
		struct{ name, unit string }{"trace.overhead.cpu_ms_per_op", "ms"})
	return ms
}()

// maxSpans bounds the spans kept in memory; counters and timings keep
// accumulating past it.
const maxSpans = 100_000

// tracer records, from the benchmark's side of each layer boundary,
// spans (Simulate, Open, Lookup, Wait, Send, handler dispatch), counts
// and timings, plus a CPU profile and allocation deltas over the
// measured phase.
type tracer struct {
	spans *p2pmss.SpanCollector
	epoch time.Time
	kept  atomic.Int64
	// on is set between begin and end: only the measured phase counts.
	on  atomic.Bool
	reg *p2pmss.MetricsRegistry // instruments UDP endpoints

	mu       sync.Mutex
	runMS    []float64
	sendUS   []float64
	openUS   []float64
	lookupUS []float64
	frames   map[string]*frameStat

	prof      bytes.Buffer
	profiling bool
	mem0      runtime.MemStats
	began     time.Time
	elapsed   time.Duration
	allocMB   float64
	gcCycles  float64
	shares    map[string]float64
	samples   int
}

type frameStat struct {
	n, bytes float64
	handleUS []float64
}

func newTracer() *tracer {
	return &tracer{
		spans:  p2pmss.NewSpanCollector(),
		epoch:  time.Now(),
		reg:    p2pmss.NewMetricsRegistry(),
		frames: map[string]*frameStat{},
	}
}

// begin starts the measured phase: CPU profile and allocation baseline.
// All tracer methods are no-ops on a nil tracer.
func (t *tracer) begin() {
	if t == nil {
		return
	}
	runtime.ReadMemStats(&t.mem0)
	t.profiling = pprof.StartCPUProfile(&t.prof) == nil
	t.began = time.Now()
	t.on.Store(true)
}

// end closes the measured phase of ops operations.
func (t *tracer) end(ops int) {
	if t == nil {
		return
	}
	t.on.Store(false)
	t.elapsed = time.Since(t.began)
	if t.profiling {
		pprof.StopCPUProfile()
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	n := float64(max(1, ops))
	t.allocMB = float64(m1.TotalAlloc-t.mem0.TotalAlloc) / (1 << 20) / n
	t.gcCycles = float64(m1.NumGC-t.mem0.NumGC) / n
	shares, samples, err := cpuShares(t.prof.Bytes())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: reading CPU profile: %v\n", err)
	}
	t.shares, t.samples = shares, samples
}

func (t *tracer) span(label string, peer int, name string, t0, t1 time.Time, detail string) {
	if !t.on.Load() || t.kept.Add(1) > maxSpans {
		return
	}
	t.spans.Add(p2pmss.Span{
		Trace: p2pmss.DeriveTrace(label), ID: t.spans.NextID(), Name: name, Peer: peer,
		Start: t0.Sub(t.epoch).Seconds(), End: t1.Sub(t.epoch).Seconds(), Detail: detail,
	})
}

func (t *tracer) frame(typ string) *frameStat {
	f := t.frames[typ]
	if f == nil {
		f = &frameStat{}
		t.frames[typ] = f
	}
	return f
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (t *tracer) simulated(label string, t0, t1 time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.runMS = append(t.runMS, ms(t1.Sub(t0)))
	t.mu.Unlock()
	t.span("sim", 0, "Simulate", t0, t1, label)
}

func (t *tracer) sent(m p2pmss.TransportMsg, node int, t0, t1 time.Time) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	f := t.frame(m.Type)
	f.n++
	f.bytes += float64(jsonFrameLen(m))
	t.sendUS = append(t.sendUS, us(t1.Sub(t0)))
	t.mu.Unlock()
	t.span(sessionLabel(m.Session), node, "Send", t0, t1, m.Type)
}

func (t *tracer) handled(m p2pmss.TransportMsg, node int, t0, t1 time.Time) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	f := t.frame(m.Type)
	f.handleUS = append(f.handleUS, us(t1.Sub(t0)))
	t.mu.Unlock()
	t.span(sessionLabel(m.Session), node, "Handle", t0, t1, m.Type)
}

func (t *tracer) opened(sid string, node int, t0, t1 time.Time) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.openUS = append(t.openUS, us(t1.Sub(t0)))
	t.mu.Unlock()
	t.span(sid, node, "Open", t0, t1, "")
}

func (t *tracer) lookedUp(sid string, node int, t0, t1 time.Time) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.lookupUS = append(t.lookupUS, us(t1.Sub(t0)))
	t.mu.Unlock()
	t.span(sid, node, "Lookup", t0, t1, "")
}

func (t *tracer) waited(sid string, node int, t0, t1 time.Time) {
	t.span(sid, node, "Wait", t0, t1, "")
}

func sessionLabel(sid string) string {
	if sid == "" {
		return "announce"
	}
	return sid
}

// jsonFrameLen is the size of m as the JSON frame codec encodes it,
// computed from the fields instead of re-encoding, so the count costs
// no codec work of its own. Session ids, addresses and type tags are
// plain ASCII and need no escaping.
func jsonFrameLen(m p2pmss.TransportMsg) int {
	n := len(`{"type":"","from":"","payload":}`) + len(m.Type) + len(m.From) + len(m.Payload)
	if m.Session != "" {
		n += len(`,"session":""`) + len(m.Session)
	}
	if m.Trace != 0 {
		n += len(`,"trace":`) + len(strconv.FormatUint(m.Trace, 10))
	}
	if m.Span != 0 {
		n += len(`,"span":`) + len(strconv.FormatUint(m.Span, 10))
	}
	return n
}

// instrument attaches the tracer's registry to an endpoint that
// supports it (UDP), for the wire-level byte count.
func (t *tracer) instrument(ep p2pmss.TransportEndpoint) {
	if t == nil {
		return
	}
	if in, ok := ep.(interface{ Instrument(*p2pmss.MetricsRegistry) }); ok {
		in.Instrument(t.reg)
	}
}

// layerMetrics assembles every per-layer metric for a traced pass.
func (t *tracer) layerMetrics(o *outcome) map[string]metric {
	v := map[string]float64{}
	for k, x := range o.layer {
		v[k] = x
	}
	ops := float64(max(1, len(o.ops)))
	t.mu.Lock()
	v["coord.run_ms_p50"] = median(t.runMS)
	v["coord.run_ms_max"] = quantile(t.runMS, 1)
	for l, s := range t.shares {
		v["cpu."+l] = s
	}
	for typ, f := range t.frames {
		v["transport.frames."+typ] = f.n / ops
		if f.n > 0 {
			v["transport.bytes_per_frame."+typ] = f.bytes / f.n
		}
		v["live.handle_us_p50."+typ] = median(f.handleUS)
	}
	if f := t.frames["announce"]; f != nil && t.elapsed > 0 {
		v["gossip.announce_frames_per_s"] = f.n / t.elapsed.Seconds()
	}
	v["transport.send_us_p50"] = median(t.sendUS)
	v["transport.send_us_p99"] = quantile(t.sendUS, 0.99)
	v["live.open_us_p50"] = median(t.openUS)
	v["disco.lookup_us_p50"] = median(t.lookupUS)
	t.mu.Unlock()
	if msgs := t.reg.Counter("transport_messages_sent_total", "transport", "udp").Value(); msgs > 0 {
		v["transport.wire_bytes_per_frame"] = float64(t.reg.Counter("transport_bytes_sent_total", "transport", "udp").Value()) / float64(msgs)
	}
	v["go.alloc_MB"] = t.allocMB
	v["go.gc_cycles"] = t.gcCycles
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

// printAttribution prints the per-layer attribution table: each layer's
// share of CPU samples (self time: a sample counts for the innermost
// layer on its stack) beside the spans timed at its boundary.
func (t *tracer) printAttribution(w io.Writer, name string) {
	fmt.Fprintf(w, "per-layer attribution (%s, %d CPU samples over %.2f s):\n", name, t.samples, t.elapsed.Seconds())
	fmt.Fprintf(w, "  %-11s %8s\n", "layer", "cpu%")
	layers := append([]string(nil), cpuLayers...)
	sort.SliceStable(layers, func(i, j int) bool { return t.shares[layers[i]] > t.shares[layers[j]] })
	for _, l := range layers {
		if s := t.shares[l]; s > 0 {
			fmt.Fprintf(w, "  %-11s %7.1f%%\n", l, s*100)
		}
	}
	type agg struct {
		n   int
		sum float64
		ds  []float64
	}
	by := map[string]*agg{}
	traces := map[p2pmss.SpanTraceID]bool{}
	for _, s := range t.spans.Spans() {
		traces[s.Trace] = true
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.sum += s.Duration()
		a.ds = append(a.ds, s.Duration()*1e6)
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-10s %9s %12s %12s %12s   (boundary spans, %d traces)\n", "span", "count", "busy s", "p50 µs", "p99 µs", len(traces))
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "  %-10s %9d %12.3f %12.1f %12.1f\n", n, a.n, a.sum, median(a.ds), quantile(a.ds, 0.99))
	}
}

// writeFiles stores the spans (JSONL and Perfetto) and the CPU profile.
func (t *tracer) writeFiles(dir, base string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans := t.spans.Spans()
	write := func(name string, fn func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, base+name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(".spans.jsonl", func(w io.Writer) error { return p2pmss.WriteSpansJSONL(w, spans) }); err != nil {
		return err
	}
	if err := write(".perfetto.json", func(w io.Writer) error { return p2pmss.WriteSpansPerfetto(w, spans) }); err != nil {
		return err
	}
	return write(".cpu.pprof", func(w io.Writer) error { _, err := w.Write(t.prof.Bytes()); return err })
}
