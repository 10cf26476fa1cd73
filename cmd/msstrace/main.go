// Command msstrace runs one coordination simulation with flight
// recording on and dumps the timeline: every peer's engine events and
// effects plus the driver's own records (control sends of the leaf and
// the baselines, activations, crashes, churn, leaf repair) in
// virtual-time order. Useful for understanding how DCoP's flooding or
// TCoP's handshake actually unfolds.
//
// It also post-processes causal span traces written by mssim/mssplay
// -trace-out: `msstrace perfetto` converts a span JSONL file to Chrome
// trace-event JSON (open in https://ui.perfetto.dev, one track per
// peer), and `msstrace summary` prints per-session latency quantiles.
//
// `msstrace flight` inspects per-peer flight logs (mssplay -flight-out,
// /debug/flight, or a SIGUSR1 dump): filtered event listings or a
// per-peer summary table.
//
// Usage:
//
//	msstrace -proto dcop -n 20 -h 4
//	msstrace -proto tcop -n 12 -h 3 -kinds activate,send_control
//	msstrace -proto dcop -json | jq .type
//	msstrace -proto ams -json | msstrace flight -summary
//	msstrace perfetto trace.jsonl -o trace.json
//	msstrace summary trace.jsonl
//	msstrace flight flight.jsonl -summary
//	msstrace flight flight.jsonl -peer 3 -type send_commit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"p2pmss"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "perfetto":
			runPerfetto(os.Args[2:])
			return
		case "summary":
			runSummary(os.Args[2:])
			return
		case "flight":
			runFlight(os.Args[2:])
			return
		}
	}
	os.Exit(runTimeline(os.Args[1:], os.Stdout, os.Stderr))
}

// splitInput peels a leading positional argument (the trace file) off
// the subcommand args, so flags may come before or after the file name
// (stdlib flag parsing stops at the first non-flag otherwise).
func splitInput(args []string) (input string, rest []string) {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return args[0], args[1:]
	}
	return "", args
}

// readSpans loads a span JSONL trace ("-" or no path reads stdin).
func readSpans(path string) []p2pmss.Span {
	var r io.Reader = os.Stdin
	if path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	spans, err := p2pmss.ReadSpansJSONL(r)
	if err != nil {
		fatal(err)
	}
	return spans
}

// runPerfetto converts a span JSONL trace (mssim/mssplay -trace-out)
// into Chrome trace-event JSON for the Perfetto UI.
func runPerfetto(args []string) {
	fs := flag.NewFlagSet("msstrace perfetto", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: msstrace perfetto [-o out.json] [trace.jsonl]")
		fs.PrintDefaults()
	}
	input, rest := splitInput(args)
	fs.Parse(rest) //nolint:errcheck // ExitOnError
	if input == "" {
		input = fs.Arg(0)
	}
	spans := readSpans(input)
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	if err := p2pmss.WriteSpansPerfetto(w, spans); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "msstrace: %d spans -> %s (open in https://ui.perfetto.dev)\n", len(spans), *out)
	}
}

// runSummary prints per-session latency quantiles (p50/p95/p99 per span
// name) for a span JSONL trace.
func runSummary(args []string) {
	fs := flag.NewFlagSet("msstrace summary", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: msstrace summary [trace.jsonl]")
		fs.PrintDefaults()
	}
	input, rest := splitInput(args)
	fs.Parse(rest) //nolint:errcheck // ExitOnError
	if input == "" {
		input = fs.Arg(0)
	}
	p2pmss.PrintSpanSummary(os.Stdout, p2pmss.SummarizeSpans(readSpans(input)))
}

// runFlight lists or summarizes a per-peer flight log (JSONL) written
// by mssplay -flight-out, /debug/flight, or a SIGUSR1 dump.
func runFlight(args []string) {
	fs := flag.NewFlagSet("msstrace flight", flag.ExitOnError)
	peer := fs.Int("peer", -1, "only events of this peer id (-1 = all)")
	sess := fs.String("session", "", "only events of this session id")
	typ := fs.String("type", "", "only events of this type (e.g. send_commit, timer_confirm)")
	limit := fs.Int("limit", 0, "print at most this many events (0 = all)")
	summary := fs.Bool("summary", false, "print a per-(peer, type) summary table instead of events")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: msstrace flight [-peer N] [-session S] [-type T] [-limit N] [-summary] [flight.jsonl]")
		fs.PrintDefaults()
	}
	input, rest := splitInput(args)
	fs.Parse(rest) //nolint:errcheck // ExitOnError
	if input == "" {
		input = fs.Arg(0)
	}

	var r io.Reader = os.Stdin
	if input != "" && input != "-" {
		f, err := os.Open(input)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	all, err := p2pmss.ReadFlightJSONL(r)
	if err != nil {
		fatal(err)
	}
	events := all[:0:0]
	for _, e := range all {
		if *peer >= 0 && e.Peer != *peer {
			continue
		}
		if *sess != "" && e.Session != *sess {
			continue
		}
		if *typ != "" && e.Type != *typ {
			continue
		}
		events = append(events, e)
	}

	if *summary {
		fmt.Printf("%-10s %5s %-4s %-20s %8s %12s %12s\n",
			"session", "peer", "dir", "type", "count", "first", "last")
		for _, s := range p2pmss.SummarizeFlight(events) {
			fmt.Printf("%-10s %5d %-4s %-20s %8d %12.6f %12.6f\n",
				s.Session, s.Peer, s.Dir, s.Type, s.Count, s.First, s.Last)
		}
		fmt.Fprintf(os.Stderr, "msstrace: %d events (%d after filters)\n", len(all), len(events))
		return
	}

	shown := 0
	for _, e := range events {
		if *limit > 0 && shown >= *limit {
			fmt.Printf("... %d more (raise -limit)\n", len(events)-shown)
			break
		}
		printFlightEvent(os.Stdout, e)
		shown++
	}
	fmt.Fprintf(os.Stderr, "msstrace: %d events (%d after filters)\n", len(all), len(events))
}

// printFlightEvent writes one flight record as a listing line.
func printFlightEvent(w io.Writer, e p2pmss.FlightEvent) {
	sessPrefix := ""
	if e.Session != "" {
		sessPrefix = e.Session + "/"
	}
	fmt.Fprintf(w, "%12.6f %speer%-3d %-4s %-20s other=%-3d round=%-2d n=%d\n",
		e.T, sessPrefix, e.Peer, e.Dir, e.Type, e.Other, e.Round, e.N)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "msstrace:", err)
	os.Exit(1)
}

// runTimeline parses the timeline flags, runs the simulation and
// writes its timeline; it returns the process exit code.
func runTimeline(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("msstrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		proto   = fs.String("proto", p2pmss.DCoP, "protocol: dcop, tcop, broadcast, unicast, centralized, ams")
		n       = fs.Int("n", 20, "contents peers")
		fanout  = fs.Int("h", 4, "fanout H")
		seed    = fs.Int64("seed", 1, "random seed")
		kinds   = fs.String("kinds", "", "comma-separated record types to show (default all)")
		limit   = fs.Int("limit", 1024, "flight ring capacity per peer (must be positive)")
		jsonOut = fs.Bool("json", false, "emit the timeline as flight JSON Lines (one record per line)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *limit <= 0 {
		fmt.Fprintf(stderr, "msstrace: -limit %d must be positive\n", *limit)
		fs.Usage()
		return 2
	}
	cfg := p2pmss.DefaultSimConfig()
	cfg.N = *n
	cfg.H = *fanout
	cfg.Seed = *seed
	var types []string
	if *kinds != "" {
		for _, k := range strings.Split(*kinds, ",") {
			types = append(types, strings.TrimSpace(k))
		}
	}
	if err := writeTimeline(stdout, stderr, *proto, cfg, *limit, types, *jsonOut); err != nil {
		fmt.Fprintln(stderr, "msstrace:", err)
		return 1
	}
	return 0
}

// writeTimeline runs proto under cfg with a flight set of perPeerCap
// records per peer and writes every record of the given types (all when
// types is empty) in (T, peer, seq) order: as listing lines with a
// per-type summary, or as flight JSONL when jsonOut is set. The run
// summary goes to stdout after a listing and to stderr after JSONL, so
// JSONL output stays machine-readable.
func writeTimeline(stdout, stderr io.Writer, proto string, cfg p2pmss.SimConfig, perPeerCap int, types []string, jsonOut bool) error {
	fl := p2pmss.NewFlightSet(perPeerCap)
	cfg.Obs.Flight = fl
	res, err := p2pmss.Simulate(proto, cfg)
	if err != nil {
		return err
	}
	all := fl.Events()
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Peer != b.Peer {
			return a.Peer < b.Peer
		}
		return a.Seq < b.Seq
	})
	keep := make(map[string]bool, len(types))
	for _, t := range types {
		keep[t] = true
	}
	events := all[:0:0]
	counts := make(map[string]int)
	for _, e := range all {
		if len(keep) > 0 && !keep[e.Type] {
			continue
		}
		events = append(events, e)
		counts[e.Type]++
	}
	summary := fmt.Sprintf("%s: %d/%d peers active, %d rounds, %d control packets, sync at t=%.2f\n",
		res.Protocol, res.ActivePeers, cfg.N, res.Rounds, res.ControlPackets, res.SyncTime)

	if jsonOut {
		if err := p2pmss.WriteFlightJSONL(stdout, events); err != nil {
			return err
		}
		_, err := io.WriteString(stderr, summary)
		return err
	}
	for _, e := range events {
		printFlightEvent(stdout, e)
	}
	names := make([]string, 0, len(counts))
	for t := range counts {
		names = append(names, t)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "-- %d records", len(events))
	if ev := fl.Evicted(); ev > 0 {
		fmt.Fprintf(stdout, " (%d evicted; raise -limit)", ev)
	}
	for _, t := range names {
		fmt.Fprintf(stdout, "  %s=%d", t, counts[t])
	}
	_, err = fmt.Fprintf(stdout, "\n\n%s", summary)
	return err
}
