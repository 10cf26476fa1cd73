// Package obs holds the observability configuration shared by the
// simulated (coord) and live runtimes: one struct, accepted by every
// config as its Obs field, is the only way to attach observers.
package obs

import (
	"p2pmss/internal/flight"
	"p2pmss/internal/metrics"
	"p2pmss/internal/span"
)

// Observability bundles every optional observer a run can attach. The
// zero value attaches nothing. All observers are strictly passive:
// none of them feeds back into protocol behavior, so an instrumented
// run is event-for-event identical to a bare one.
type Observability struct {
	// Metrics, when non-nil, registers and updates the run's counters,
	// gauges and histograms on the registry.
	Metrics *metrics.Registry
	// Spans, when non-nil, collects causal spans (handshake rounds,
	// confirmation waves, commits, hand-offs, streaming, leaf stalls).
	Spans *span.Collector
	// SpanTrace is the trace (session) ID spans are recorded under.
	// Zero lets each runtime derive one (from the seed in the sim,
	// from the session name in the live runtime).
	SpanTrace span.TraceID
	// Flight, when non-nil, records every peer's engine event/effect
	// stream into per-peer flight rings for topology forensics and
	// sim-vs-live divergence diffing. The simulator also records its
	// driver-side facts there (crashes, churn, leaf repair, and the
	// control sends and activations of peers without an engine) as
	// Dir "drv" records.
	Flight *flight.Set
}
