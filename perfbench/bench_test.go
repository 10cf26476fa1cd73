package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"p2pmss"
)

// A session that never completes is counted as failed when its deadline
// passes, and the run still ends on schedule instead of waiting for it.
func TestStalledSessionCountedAndBounded(t *testing.T) {
	sp := swarmDefaults
	sp.stall = 3
	sp.deadline = time.Second
	measure := 2 * time.Second
	start := time.Now()
	o, err := swarm(pass{seed: 11, measure: measure}, sp)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed < 1 {
		t.Fatalf("stalled session not counted: %d attempted, %d failed", o.attempted, o.failed)
	}
	if len(o.violations) != 0 {
		t.Fatalf("a stall is a failed operation, not a wrong output: %v", o.violations)
	}
	if !strings.Contains(strings.Join(o.notes, "\n"), "missed its deadline") {
		t.Errorf("notes do not name the stalled session: %v", o.notes)
	}
	if o.elapsed > measure+sp.deadline+500*time.Millisecond {
		t.Errorf("measured phase took %v, want at most the schedule plus one deadline", o.elapsed)
	}
	if total := time.Since(start); total > 10*time.Second {
		t.Errorf("run took %v", total)
	}
}

func TestJSONFrameLen(t *testing.T) {
	for _, m := range []p2pmss.TransportMsg{
		{Type: "data", From: "127.0.0.1:4000", Payload: json.RawMessage(`{"seq":1,"b":"AAAA"}`)},
		{Type: "control", From: "node3", Session: "s12", Payload: json.RawMessage(`{}`)},
		{Type: "commit", From: "node1", Session: "s1", Trace: 1 << 60, Span: 7, Payload: json.RawMessage(`[1,2]`)},
	} {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonFrameLen(m); got != len(b) {
			t.Errorf("jsonFrameLen(%s) = %d, encoded %d bytes: %s", m.Type, got, len(b), b)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"math/rand.seedrand", "math/rand.(*rngSource).Seed", "p2pmss/internal/engine.NewPeer"}, "rng_seed"},
		{[]string{"runtime.memmove", "encoding/json.Marshal", "p2pmss/internal/live.(*Peer).send"}, "codec_json"},
		{[]string{"runtime.mallocgc", "p2pmss/internal/parity.(*Recoverer).Add", "p2pmss/internal/content.(*Assembler).Add"}, "parity"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"syscall.Syscall6", "internal/poll.(*FD).WriteTo", "p2pmss/internal/transport.(*UDPEndpoint).write"}, "syscall"},
		{[]string{"p2pmss/internal/metrics.(*Counter).Inc", "p2pmss/internal/live.(*Node).handle"}, "other"},
		{[]string{"runtime.futex"}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestDeriveIsDeterministicAndSpread(t *testing.T) {
	if derive(5, "a", 1) != derive(5, "a", 1) {
		t.Fatal("derive is not deterministic")
	}
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for _, l := range []string{"a", "b"} {
			for i := 0; i < 4; i++ {
				v := derive(seed, l, i)
				if v <= 0 || seen[v] {
					t.Fatalf("derive(%d,%q,%d) = %d repeats or is not positive", seed, l, i, v)
				}
				seen[v] = true
			}
		}
	}
}

// BENCHMARK.json at the repository root declares the metrics this
// program prints; the two lists must agree name for name and unit for
// unit, in order.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}
