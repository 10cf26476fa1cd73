package main

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"p2pmss"
	"p2pmss/internal/engine"
	"p2pmss/internal/failure"
)

// timelineJSON runs the timeline CLI with -json and parses its output.
func timelineJSON(t *testing.T, args ...string) []p2pmss.FlightEvent {
	t.Helper()
	var out, errb bytes.Buffer
	if code := runTimeline(append(args, "-json"), &out, &errb); code != 0 {
		t.Fatalf("msstrace %v exited %d: %s", args, code, errb.String())
	}
	events, err := p2pmss.ReadFlightJSONL(&out)
	if err != nil {
		t.Fatalf("msstrace %v -json does not parse as flight JSONL: %v", args, err)
	}
	return events
}

// isControlSend reports whether a record is a control send: an engine
// peer's send_* effect, or a driver record of the leaf or a baseline
// typed by its message.
func isControlSend(e p2pmss.FlightEvent) bool {
	if strings.HasPrefix(e.Type, "send_") && e.Dir == "eff" {
		return true
	}
	if e.Dir != "drv" {
		return false
	}
	switch e.Type {
	case "activate", "crash", "churn", "repair":
		return false
	}
	return true
}

func TestTimelineCoversAllProtocols(t *testing.T) {
	const n = 6
	for _, proto := range []string{p2pmss.DCoP, p2pmss.TCoP, p2pmss.Broadcast, p2pmss.Unicast, p2pmss.Centralized, p2pmss.AMS} {
		events := timelineJSON(t, "-proto", proto, "-n", "6", "-h", "2")
		var activations, sends, leafRequests int
		for _, e := range events {
			if e.Peer == n {
				t.Fatalf("%s: record %+v sits on the leaf's simnet id %d, want %d", proto, e, n, engine.LeafID)
			}
			if e.Type == "activate" {
				activations++
			}
			if isControlSend(e) {
				sends++
			}
			if e.Dir == "drv" && e.Type == "request" {
				leafRequests++
				if e.Peer != int(engine.LeafID) {
					t.Errorf("%s: leaf request recorded on peer %d", proto, e.Peer)
				}
			}
		}
		if activations == 0 || sends == 0 || leafRequests == 0 {
			t.Errorf("%s: %d activations, %d control sends, %d leaf requests; want all > 0",
				proto, activations, sends, leafRequests)
		}
	}
}

func TestTimelineKindsListsCrashedPeers(t *testing.T) {
	for _, proto := range []string{p2pmss.DCoP, p2pmss.Broadcast} {
		cfg := p2pmss.DefaultSimConfig()
		cfg.N, cfg.H = 12, 3
		cfg.CrashPeers = []p2pmss.PeerID{2, 7, 9}
		cfg.CrashAt = 1.5
		var out, errb bytes.Buffer
		if err := writeTimeline(&out, &errb, proto, cfg, 1024, []string{"crash"}, true); err != nil {
			t.Fatal(err)
		}
		events, err := p2pmss.ReadFlightJSONL(&out)
		if err != nil {
			t.Fatal(err)
		}
		var peers []int
		for _, e := range events {
			if e.Type != "crash" || e.T != cfg.CrashAt {
				t.Errorf("%s: -kinds crash listed %+v", proto, e)
			}
			peers = append(peers, e.Peer)
		}
		sort.Ints(peers)
		if want := []int{2, 7, 9}; !reflect.DeepEqual(peers, want) {
			t.Errorf("%s: crash records for peers %v, want %v", proto, peers, want)
		}
	}
}

func TestTimelineRecordsChurnAndRepair(t *testing.T) {
	cfg := p2pmss.DefaultSimConfig()
	cfg.N, cfg.H, cfg.Interval = 10, 5, 1000
	cfg.DataPlane, cfg.Loop, cfg.Repair = true, false, true
	cfg.ContentLen, cfg.Rate = 300, 10
	cfg.Churn = &failure.ChurnSchedule{Events: []failure.ChurnEvent{
		{At: 10, Peer: 0},
		{At: 10, Peer: 1},
		{At: 60, Peer: 1, Join: true},
	}}
	var out, errb bytes.Buffer
	if err := writeTimeline(&out, &errb, p2pmss.DCoP, cfg, 4096, []string{"churn", "repair"}, true); err != nil {
		t.Fatal(err)
	}
	events, err := p2pmss.ReadFlightJSONL(&out)
	if err != nil {
		t.Fatal(err)
	}
	var churn, rejoins, repairs int
	for _, e := range events {
		switch {
		case e.Type == "churn":
			churn++
			rejoins += e.N
		case e.Type == "repair" && e.Dir == "drv":
			repairs++
			if e.Peer != int(engine.LeafID) || e.N == 0 {
				t.Errorf("repair record %+v, want the leaf asking for missing packets", e)
			}
		}
	}
	if churn != 3 || rejoins != 1 {
		t.Errorf("%d churn records with %d rejoins, want 3 and 1", churn, rejoins)
	}
	if repairs == 0 {
		t.Error("no leaf repair records")
	}
}

func TestTimelineDeterministic(t *testing.T) {
	for _, args := range [][]string{
		{"-proto", "tcop", "-n", "12", "-h", "3", "-seed", "5"},
		{"-proto", "ams", "-n", "12", "-h", "3", "-seed", "5", "-json"},
	} {
		var a, b, errA, errB bytes.Buffer
		if code := runTimeline(args, &a, &errA); code != 0 {
			t.Fatalf("%v exited %d: %s", args, code, errA.String())
		}
		if code := runTimeline(args, &b, &errB); code != 0 {
			t.Fatalf("%v exited %d: %s", args, code, errB.String())
		}
		if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) || errA.String() != errB.String() {
			t.Errorf("%v: two same-seed runs differ (or are empty)", args)
		}
	}
}

func TestTimelineRejectsNonPositiveLimit(t *testing.T) {
	for _, limit := range []string{"0", "-3"} {
		var out, errb bytes.Buffer
		if code := runTimeline([]string{"-limit", limit}, &out, &errb); code != 2 {
			t.Errorf("-limit %s exited %d, want 2", limit, code)
		}
		if !strings.Contains(errb.String(), "must be positive") {
			t.Errorf("-limit %s stderr %q lacks the reason", limit, errb.String())
		}
	}
}
