package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"p2pmss"
)

// simJob is one Simulate call of a workload's grid.
type simJob struct {
	fig   int // 10, 11, 12, or 0 for a Fig. 12 point's delivery-tracked twin
	proto p2pmss.Protocol
	cfg   p2pmss.SimConfig
}

// pointConfig mirrors the experiment package's sweep-point config, with
// the run seed supplied by the benchmark instead of fixed to 1..Seeds.
func pointConfig(n, h int, seed int64, dataPlane bool) p2pmss.SimConfig {
	cfg := p2pmss.DefaultSimConfig()
	cfg.N, cfg.H, cfg.Seed, cfg.LeafShares = n, h, seed, true
	if dataPlane {
		cfg.DataPlane = true
		cfg.Rate, cfg.ContentLen, cfg.Window = 2, 30000, 200
	}
	return cfg
}

// runGrid runs the jobs one after another and returns their results in
// job order, plus when the first result was ready. Serial runs keep an
// operation's wall time independent of whether a second CPU is free (the
// collector still runs beside them) and its memory to one run's.
func runGrid(jobs []simJob, tr *tracer) ([]p2pmss.SimResult, []error, time.Duration) {
	res := make([]p2pmss.SimResult, len(jobs))
	errs := make([]error, len(jobs))
	var first time.Duration
	start := time.Now()
	for i, j := range jobs {
		t0 := time.Now()
		res[i], errs[i] = p2pmss.Simulate(j.proto, j.cfg)
		t1 := time.Now()
		if i == 0 {
			first = t1.Sub(start)
		}
		if tr != nil {
			tr.simulated(fmt.Sprintf("fig%d/%s/n=%d/H=%d/seed=%d", j.fig, j.proto, j.cfg.N, j.cfg.H, j.cfg.Seed), t0, t1)
		}
	}
	return res, errs, first
}

// checkRun applies the invariants every run must hold: coverage of at
// least minActive peers, and at most one committed parent per TCoP peer.
func checkRun(o *outcome, j simJob, r p2pmss.SimResult, err error, minActive int) bool {
	label := fmt.Sprintf("fig%d %s n=%d H=%d seed=%d", j.fig, j.proto, j.cfg.N, j.cfg.H, j.cfg.Seed)
	ok := true
	if err != nil {
		o.violate("%s: %v", label, err)
		return false
	}
	if r.ActivePeers < minActive {
		o.violate("%s: %d of %d peers activated, want at least %d", label, r.ActivePeers, j.cfg.N, minActive)
		ok = false
	}
	if j.proto == p2pmss.TCoP {
		parents := make([]int, j.cfg.N)
		for _, oc := range r.Outcomes {
			for _, c := range oc.Children {
				if int(c) >= 0 && int(c) < len(parents) {
					parents[c]++
				}
			}
		}
		for p, n := range parents {
			if n > 1 {
				o.violate("%s: peer %d has %d committed parents", label, p, n)
				ok = false
				break
			}
		}
	}
	if j.cfg.DataPlane && !j.cfg.TrackDelivery && r.ReceiptRate < 1 {
		o.violate("%s: receipt rate %.4f below the content rate", label, r.ReceiptRate)
		ok = false
	}
	if j.cfg.TrackDelivery && r.DeliveredData != j.cfg.ContentLen {
		o.violate("%s: delivered %d of %d packets", label, r.DeliveredData, j.cfg.ContentLen)
		ok = false
	}
	return ok
}

// idealReceipt is τ(h+1)/h in units of τ for the sim's default parity
// interval h = H-1.
func idealReceipt(h int) float64 {
	if h <= 1 {
		return 2
	}
	return float64(h) / float64(h-1)
}

// simSetup times input generation plus one warm-up coordination run at
// the paper's n = 100, so lazily initialised state is in place before
// any operation is timed.
func simSetup(o *outcome, build func() []simJob) []simJob {
	var jobs []simJob
	for i := 0; i < simSetups; i++ {
		t0 := time.Now()
		jobs = build()
		warm := pointConfig(100, 10, 1, false)
		if _, err := p2pmss.Simulate(p2pmss.DCoP, warm); err != nil {
			o.violate("warm-up run: %v", err)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	return jobs
}

const simSetups = 15

// fits reports whether another operation, as long as the last one,
// still ends inside the measured phase; the first always runs.
func fits(start time.Time, measure time.Duration, ops []float64) bool {
	if len(ops) == 0 {
		return true
	}
	last := time.Duration(ops[len(ops)-1] * float64(time.Millisecond))
	return time.Since(start)+last <= measure
}

// memoryOp runs one more, untimed operation with the collector keeping
// the heap within 10% of its live data, and returns the peak resident
// set it reached in MiB. At the default GOGC a simulation's peak lands
// anywhere between its live heap and twice that, depending on where the
// collections fall, which varies from run to run; held to 10% the peak
// tracks the memory the simulation really holds.
func memoryOp(run func()) float64 {
	debug.FreeOSMemory()
	old := debug.SetGCPercent(10)
	defer debug.SetGCPercent(old)
	probe := startRSS()
	run()
	return probe.peak()
}

// ---- sim-paper --------------------------------------------------------

// sim-paper regenerates Figs. 10, 11 and 12 at the paper's n = 100 on
// the packet data plane over a reduced H grid and two run seeds. One
// operation is one regeneration of the whole grid.
var paperHs = []int{10, 30, 60, 100}

const (
	paperN     = 100
	paperSeeds = 2
	// paperTrackedLen is the content length of the delivery-tracked
	// twin of each Fig. 12 point (TrackDelivery runs to quiescence).
	paperTrackedLen = 500
)

func paperJobs(seed int64) []simJob {
	var jobs []simJob
	// Data-plane runs first, so the time to the first result is a
	// packet-plane run's.
	for _, fig := range []int{12, 0, 10, 11} {
		for _, proto := range []p2pmss.Protocol{p2pmss.DCoP, p2pmss.TCoP} {
			if (fig == 10 && proto != p2pmss.DCoP) || (fig == 11 && proto != p2pmss.TCoP) {
				continue
			}
			for _, h := range paperHs {
				for s := 0; s < paperSeeds; s++ {
					cfg := pointConfig(paperN, h, derive(seed, "sim-paper/run", s), fig == 12 || fig == 0)
					if fig == 0 {
						cfg.Loop, cfg.TrackDelivery, cfg.ContentLen = false, true, paperTrackedLen
					}
					jobs = append(jobs, simJob{fig, proto, cfg})
				}
			}
		}
	}
	return jobs
}

func runSimPaper(p pass) (*outcome, error) {
	o := &outcome{}
	jobs := simSetup(o, func() []simJob { return paperJobs(p.seed) })
	p.tr.begin()
	cpu0, start := cpuTime(), time.Now()
	var ctl, data float64
	for fits(start, p.measure, o.ops) {
		// Every operation starts from a collected heap, so none pays for
		// the previous one's garbage.
		runtime.GC()
		t0 := time.Now()
		res, errs, first := runGrid(jobs, p.tr)
		o.ops = append(o.ops, ms(time.Since(t0)))
		o.first = append(o.first, ms(first))
		type key struct{ fig, h int }
		rounds, packets := map[key]float64{}, map[key]float64{}
		var ratio float64
		var points int
		for i, j := range jobs {
			o.attempted++
			if !checkRun(o, j, res[i], errs[i], paperN) {
				o.failed++
			}
			k := key{j.fig, j.cfg.H}
			rounds[k] += float64(res[i].Rounds)
			packets[k] += float64(res[i].ControlPackets)
			ctl += float64(res[i].ControlPackets)
			for _, n := range res[i].PeerSent {
				data += float64(n)
			}
			if j.fig == 12 {
				ratio += res[i].ReceiptRate / idealReceipt(j.cfg.H)
				points++
			}
		}
		o.receipt = append(o.receipt, ratio/float64(points))
		// TCoP's confirmation handshake costs rounds and packets over
		// DCoP at every H, except H = n where both degenerate to the
		// leaf's single round of requests to every peer.
		for _, h := range paperHs {
			d, t := key{10, h}, key{11, h}
			above := rounds[t] > rounds[d] && packets[t] > packets[d]
			if h == paperN {
				above = rounds[t] >= rounds[d] && packets[t] >= packets[d]
			}
			if !above {
				o.violate("H=%d: TCoP rounds/packets %.1f/%.1f not above DCoP %.1f/%.1f",
					h, rounds[t]/paperSeeds, packets[t]/paperSeeds, rounds[d]/paperSeeds, packets[d]/paperSeeds)
			}
		}
	}
	o.elapsed, o.cpu = time.Since(start), cpuTime()-cpu0
	p.tr.end(len(o.ops))
	o.peakRSS = memoryOp(func() { runGrid(jobs, nil) })
	n := float64(max(1, len(o.ops)))
	o.layer = map[string]float64{"coord.control_pkts": ctl / n, "coord.data_pkts": data / n}
	o.notes = append(o.notes,
		fmt.Sprintf("metric %-16s %14.4f s  (= op_p50_ms/1000)", "wall_s", median(o.ops)/1000),
		fmt.Sprintf("grid: %d Simulate calls per op, H=%v, %d run seeds", len(jobs), paperHs, paperSeeds))
	return o, nil
}

// ---- sim-scale --------------------------------------------------------

// sim-scale runs both protocols at H = 10 on the fluid plane at
// n = 2×10⁴. One operation is the pair.
const (
	scaleN = 20000
	scaleH = 10
)

// scaleMinActive is sim-scale's coverage floor. Random flooding leaves a
// peer unselected with probability ≈ e^−H, about one peer in 2×10⁴ at
// H = 10, so full coverage is the paper's property at n = 100 (checked
// by sim-paper), not at n = 2×10⁴; the floor allows ten times the
// expected shortfall.
var scaleMinActive = scaleN - int(math.Ceil(10*scaleN*math.Exp(-scaleH)))

// scaleJobs is operation k's pair. Each operation of a pass draws its
// own overlay seed: peak memory and run time depend on the overlay, and
// a pass's median over several overlays follows the workload seed less
// closely than any one overlay would.
func scaleJobs(seed int64, k int) []simJob {
	var jobs []simJob
	for _, proto := range []p2pmss.Protocol{p2pmss.DCoP, p2pmss.TCoP} {
		cfg := pointConfig(scaleN, scaleH, derive(seed, "sim-scale/run", k), true)
		cfg.PlaneMode = p2pmss.PlaneFluid
		jobs = append(jobs, simJob{12, proto, cfg})
	}
	return jobs
}

func runSimScale(p pass) (*outcome, error) {
	o := &outcome{}
	simSetup(o, func() []simJob { return scaleJobs(p.seed, 0) })
	p.tr.begin()
	cpu0, start := cpuTime(), time.Now()
	var ctl, data float64
	for k := 0; fits(start, p.measure, o.ops); k++ {
		// Every operation starts from a collected heap, so none pays for
		// the previous one's garbage.
		runtime.GC()
		jobs := scaleJobs(p.seed, k)
		t0 := time.Now()
		res, errs, first := runGrid(jobs, p.tr)
		o.ops = append(o.ops, ms(time.Since(t0)))
		o.first = append(o.first, ms(first))
		var ratio float64
		for i, j := range jobs {
			o.attempted++
			if !checkRun(o, j, res[i], errs[i], scaleMinActive) {
				o.failed++
			}
			ratio += res[i].ReceiptRate / idealReceipt(scaleH)
			ctl += float64(res[i].ControlPackets)
			for _, n := range res[i].PeerSent {
				data += float64(n)
			}
		}
		o.receipt = append(o.receipt, ratio/float64(len(jobs)))
	}
	o.elapsed, o.cpu = time.Since(start), cpuTime()-cpu0
	p.tr.end(len(o.ops))
	o.peakRSS = memoryOp(func() { runGrid(scaleJobs(p.seed, 0), nil) })
	n := float64(max(1, len(o.ops)))
	o.layer = map[string]float64{"coord.control_pkts": ctl / n, "coord.data_pkts": data / n}
	o.notes = append(o.notes,
		fmt.Sprintf("metric %-16s %14.4f s  (= op_p50_ms/1000)", "wall_s", median(o.ops)/1000),
		fmt.Sprintf("metric %-16s %14.4f MB", "peak_rss_MB", o.peakRSS))
	return o, nil
}
