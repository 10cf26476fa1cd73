package coord

import (
	"reflect"
	"testing"

	"p2pmss/internal/flight"
	"p2pmss/internal/metrics"
	"p2pmss/internal/obs"
	"p2pmss/internal/span"
)

// Attaching every observer through Obs never perturbs the run: the
// instrumented result equals a bare run's, and every observer actually
// recorded something.
func TestObsInstrumentedEqualsBare(t *testing.T) {
	for _, proto := range Protocols {
		bare := metricsTestConfig()
		instr := metricsTestConfig()
		instr.Obs = obs.Observability{
			Metrics: metrics.New(),
			Spans:   span.NewCollector(),
			Flight:  flight.NewSet(64),
		}

		r1, err := Run(proto, bare)
		if err != nil {
			t.Fatalf("%s bare: %v", proto, err)
		}
		r2, err := Run(proto, instr)
		if err != nil {
			t.Fatalf("%s instrumented: %v", proto, err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: instrumented result differs from bare:\n%+v\n%+v", proto, r1, r2)
		}
		if len(instr.Obs.Metrics.Snapshot().Counters) == 0 {
			t.Errorf("%s: registry recorded nothing", proto)
		}
		if len(instr.Obs.Flight.Events()) == 0 {
			t.Errorf("%s: flight set recorded nothing", proto)
		}
		if (proto == DCoP || proto == TCoP) && len(instr.Obs.Spans.Spans()) == 0 {
			t.Errorf("%s: collector recorded no spans", proto)
		}
	}
}

// Obs.SpanTrace takes precedence over the seed-derived trace ID.
func TestObsSpanTracePrecedence(t *testing.T) {
	want := span.DeriveTrace("obs-test")
	cfg := metricsTestConfig()
	cfg.Obs.Spans = span.NewCollector()
	cfg.Obs.SpanTrace = want
	if _, err := Run(DCoP, cfg); err != nil {
		t.Fatal(err)
	}
	spans := cfg.Obs.Spans.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans collected")
	}
	for _, s := range spans {
		if s.Trace != want {
			t.Fatalf("span trace %v, want %v", s.Trace, want)
		}
	}
}
