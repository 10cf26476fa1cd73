package engine

import "p2pmss/internal/seq"

// Stream is one contents peer's transmitter state — the state a
// Snapshot describes — together with the hand-off switches planned but
// not yet applied. It is the single implementation of the data-plane
// rules both drivers share: Activate, Merge, Absorb and the §3.3
// switch. Like Peer it is pure: the driver owns the clock, arms one
// timer per Plan for MarkDelta, and calls Switch once per firing;
// Next hands out packets at whatever pace the driver sets.
//
// A nil Seq is a rate-only stream (the simulator's control-plane-only
// and fluid modes): divisions are not materialized and only Rate moves.
type Stream struct {
	Seq  seq.Sequence
	Pos  int // packets of Seq already sent
	Rate float64

	planned []plannedSwitch // FIFO, oldest first
}

// plannedSwitch is a Handoff copied out of its pooled effect node.
type plannedSwitch struct {
	keep             seq.Sequence
	given            map[string]bool
	oldRate, newRate float64
	// rateOnly marks a switch planned while Seq was nil: it changes
	// the rate and leaves the sequence alone.
	rateOnly bool
}

// Activate installs a stream from scratch: Seq at rate, position zero.
func (s *Stream) Activate(q seq.Sequence, rate float64) {
	s.Seq, s.Pos, s.Rate = q, 0, rate
}

// Merge unions q into the unsent remainder and adds rate (DCoP's
// pkt_i := pkt_i ∪ pkt_ji for a redundantly selected peer).
func (s *Stream) Merge(q seq.Sequence, rate float64) {
	s.Seq, s.Pos = seq.Union(s.unsent(), q), 0
	s.Rate += rate
}

// Plan queues the parent's own switch for a hand-off. The packets given
// to children are copied into a key set now; the switch itself applies
// when the driver calls Switch, MarkDelta after planning.
func (s *Stream) Plan(h *Handoff) {
	sw := plannedSwitch{keep: h.Keep, oldRate: h.OldRate, newRate: h.NewRate, rateOnly: s.Seq == nil}
	for _, g := range h.Given {
		for _, p := range g {
			if sw.given == nil {
				sw.given = make(map[string]bool)
			}
			sw.given[p.Key()] = true
		}
	}
	s.planned = append(s.planned, sw)
}

// Absorb takes back an undeliverable child's share: it folds into the
// newest planned switch, or merges now when none is planned. It
// reports whether the stream changed now (the merge case).
func (s *Stream) Absorb(q seq.Sequence, rateDelta float64) bool {
	if n := len(s.planned); n > 0 {
		sw := &s.planned[n-1]
		sw.keep = seq.Union(sw.keep, q)
		sw.newRate += rateDelta
		return false
	}
	s.Merge(q, rateDelta)
	return true
}

// Switch applies the oldest planned switch (§3.3: the parent "changes
// the packet subsequence to pkt_jj and the rate … δ time units after
// CP_j sends the control packet"). Rather than replacing the stream
// wholesale, it drops the given packets from the unsent remainder and
// unions in the kept share, so it composes with merges and absorbs that
// happened since planning. The rate becomes rate − old + new, or new
// when that is not positive. Switch reports whether the sequence was
// replaced (false for a rate-only switch, or when nothing is planned).
func (s *Stream) Switch() bool {
	if len(s.planned) == 0 {
		return false
	}
	sw := s.planned[0]
	n := copy(s.planned, s.planned[1:])
	s.planned[n] = plannedSwitch{}
	s.planned = s.planned[:n]
	rate := s.Rate - sw.oldRate + sw.newRate
	if rate <= 0 {
		rate = sw.newRate
	}
	s.Rate = rate
	if sw.rateOnly && len(sw.keep) == 0 {
		return false
	}
	var rest seq.Sequence
	for _, p := range s.unsent() {
		if !sw.given[p.Key()] {
			rest = append(rest, p)
		}
	}
	s.Seq, s.Pos = seq.Union(rest, sw.keep), 0
	return true
}

// Next returns the next unsent packet and advances the position.
func (s *Stream) Next() (seq.Packet, bool) {
	if s.Pos >= len(s.Seq) {
		return seq.Packet{}, false
	}
	s.Pos++
	return s.Seq[s.Pos-1], true
}

// Pending reports whether a planned switch has not yet applied.
func (s *Stream) Pending() bool { return len(s.planned) > 0 }

// Snapshot is the stream's state as the engine reads it.
func (s *Stream) Snapshot() Snapshot {
	return Snapshot{Offset: s.Pos, Stream: s.Seq, Rate: s.Rate, Pending: s.Pending()}
}

// unsent is the not-yet-transmitted remainder of Seq.
func (s *Stream) unsent() seq.Sequence {
	if s.Pos < len(s.Seq) {
		return s.Seq[s.Pos:]
	}
	return nil
}
