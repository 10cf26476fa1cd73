package engine_test

import (
	"math/rand"
	"testing"

	"p2pmss/internal/engine"
	"p2pmss/internal/seq"
)

// Stream test steps besides the engine's own effects.
type (
	sendN    int  // call Next n times
	switchOp bool // call Switch, expecting this result
)

func ts(idx ...int64) seq.Sequence { return seq.FromIndices(idx...) }

// TestStreamEffectSequences applies effect sequences to a Stream the
// way both drivers do and checks the resulting unsent stream and rate.
func TestStreamEffectSequences(t *testing.T) {
	cases := []struct {
		name     string
		steps    []any
		wantSeq  seq.Sequence // unsent remainder
		wantRate float64
		nilSeq   bool
	}{
		{
			// A redundantly re-selected DCoP parent: a merge and a second
			// hand-off land before the first switch fires; the switches
			// apply in plan order.
			name: "two plans before the first switch",
			steps: []any{
				&engine.Activate{Seq: seq.Range(1, 8), Rate: 2},
				sendN(2),
				&engine.Handoff{Keep: ts(3, 5, 7), Given: []seq.Sequence{ts(4, 6, 8)}, OldRate: 2, NewRate: 1},
				&engine.Merge{Seq: ts(9, 10), Rate: 1},
				&engine.Handoff{Keep: ts(9), Given: []seq.Sequence{ts(10)}, OldRate: 3, NewRate: 1.5},
				switchOp(true),
				switchOp(true),
				switchOp(false),
			},
			wantSeq: ts(3, 5, 7, 9), wantRate: 0.5,
		},
		{
			// The second hand-off's only child is unreachable: its share
			// must come back through the second switch, which would
			// otherwise subtract it again.
			name: "absorb folds into the newest switch",
			steps: []any{
				&engine.Activate{Seq: seq.Range(1, 6), Rate: 3},
				&engine.Handoff{Keep: ts(1, 4), Given: []seq.Sequence{ts(2, 5), ts(3, 6)}, OldRate: 3, NewRate: 1},
				&engine.Handoff{Keep: ts(1), Given: []seq.Sequence{ts(4)}, OldRate: 1, NewRate: 0.5},
				&engine.Absorb{Seq: ts(4), RateDelta: 0.5},
				switchOp(true),
				switchOp(true),
			},
			wantSeq: ts(1, 4), wantRate: 1,
		},
		{
			name: "absorb with no switch planned merges",
			steps: []any{
				&engine.Activate{Seq: seq.Range(1, 4), Rate: 2},
				sendN(2),
				&engine.Absorb{Seq: ts(7), RateDelta: 1},
			},
			wantSeq: ts(3, 4, 7), wantRate: 3,
		},
		{
			name: "merge while a switch is pending",
			steps: []any{
				&engine.Activate{Seq: seq.Range(1, 6), Rate: 2},
				sendN(1),
				&engine.Handoff{Keep: ts(3, 5), Given: []seq.Sequence{ts(4, 6)}, OldRate: 2, NewRate: 1},
				&engine.Merge{Seq: ts(7, 8), Rate: 1},
				sendN(1),
				switchOp(true),
			},
			wantSeq: ts(3, 5, 7, 8), wantRate: 2,
		},
		{
			name: "non-positive rate falls back to the new rate",
			steps: []any{
				&engine.Activate{Seq: seq.Range(1, 4), Rate: 1},
				&engine.Handoff{Keep: ts(1, 3), Given: []seq.Sequence{ts(2, 4)}, OldRate: 1.5, NewRate: 0.5},
				switchOp(true),
			},
			wantSeq: ts(1, 3), wantRate: 0.5,
		},
		{
			name: "nil stream is rate-only",
			steps: []any{
				&engine.Activate{Rate: 2},
				&engine.Handoff{OldRate: 2, NewRate: 0.5},
				&engine.Absorb{RateDelta: 0.5},
				switchOp(false),
			},
			nilSeq: true, wantRate: 1,
		},
		{
			// The switch was planned on a nil stream, so it stays a rate
			// change even though a share merged in before it fired.
			name: "rate-only switch keeps a later merge",
			steps: []any{
				&engine.Activate{Rate: 2},
				&engine.Handoff{OldRate: 2, NewRate: 1},
				&engine.Merge{Seq: ts(1, 2), Rate: 1},
				sendN(1),
				switchOp(false),
			},
			wantSeq: ts(2), wantRate: 2,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var st engine.Stream
			for i, step := range c.steps {
				switch e := step.(type) {
				case *engine.Activate:
					st.Activate(e.Seq, e.Rate)
				case *engine.Merge:
					st.Merge(e.Seq, e.Rate)
				case *engine.Handoff:
					st.Plan(e)
				case *engine.Absorb:
					st.Absorb(e.Seq, e.RateDelta)
				case sendN:
					for n := 0; n < int(e); n++ {
						if _, ok := st.Next(); !ok {
							t.Fatalf("step %d: stream ran dry", i)
						}
					}
				case switchOp:
					if got := st.Switch(); got != bool(e) {
						t.Fatalf("step %d: Switch() = %v, want %v", i, got, bool(e))
					}
				}
			}
			if c.nilSeq != (st.Seq == nil) {
				t.Errorf("Seq nil = %v, want %v", st.Seq == nil, c.nilSeq)
			}
			snap := st.Snapshot()
			if got := snap.Stream[snap.Offset:]; !seq.Equal(got, c.wantSeq) {
				t.Errorf("unsent = %v, want %v", got, c.wantSeq)
			}
			if snap.Rate != c.wantRate {
				t.Errorf("rate = %v, want %v", snap.Rate, c.wantRate)
			}
			if snap.Pending {
				t.Error("a switch is still pending")
			}
		})
	}
}

// TestStreamNeverDropsPackets drives random operation sequences and
// checks that every packet the stream owes — its unsent remainder, a
// merged share, an absorbed share — is, once no switch is pending,
// either still queued or in a share given to a child that was not
// taken back. Hand-offs are derived from the stream as the engine
// derives them: ShareOut of the stream from a mark past the position.
func TestStreamNeverDropsPackets(t *testing.T) {
	type liveShare struct {
		s       seq.Sequence
		rate    float64
		dropped bool
	}
	for trial := int64(0); trial < 400; trial++ {
		rng := rand.New(rand.NewSource(trial))
		var st engine.Stream
		next := int64(1)
		fresh := func(n int) seq.Sequence {
			s := seq.Range(next, next+int64(n)-1)
			next += int64(n)
			return s
		}
		owed := map[string]bool{}
		owe := func(s seq.Sequence) {
			for _, p := range s {
				owed[p.Key()] = true
			}
		}
		var shares []*liveShare
		st.Activate(fresh(5+rng.Intn(20)), 1+rng.Float64()*4)
		owe(st.Seq)
		check := func(op int) {
			queued := map[string]bool{}
			for _, p := range st.Seq[st.Pos:] {
				queued[p.Key()] = true
			}
			given := map[string]bool{}
			for _, sh := range shares {
				if !sh.dropped {
					for _, p := range sh.s {
						given[p.Key()] = true
					}
				}
			}
			for k := range owed {
				if !queued[k] && !given[k] {
					t.Fatalf("trial %d op %d: packet %s dropped", trial, op, k)
				}
			}
		}
		for op := 0; op < 30; op++ {
			switch rng.Intn(5) {
			case 0: // send
				for n := rng.Intn(4); n > 0; n-- {
					if p, ok := st.Next(); ok {
						delete(owed, p.Key())
					}
				}
			case 1: // merge a fresh share
				s := fresh(1 + rng.Intn(6))
				st.Merge(s, rng.Float64())
				owe(s)
			case 2: // hand off
				snap := st.Snapshot()
				k := 2 + rng.Intn(3)
				mark := snap.Offset + rng.Intn(4)
				parts, rate := engine.ShareOut(snap.Stream, mark, snap.Rate, 1+rng.Intn(3), k)
				keep, given := engine.SplitParts(parts)
				for _, g := range given {
					shares = append(shares, &liveShare{s: g, rate: rate})
				}
				st.Plan(&engine.Handoff{Keep: keep, Given: given, OldRate: snap.Rate, NewRate: rate, Mark: mark})
			case 3: // a child was unreachable: absorb its share
				if len(shares) == 0 {
					continue
				}
				sh := shares[rng.Intn(len(shares))]
				if sh.dropped {
					continue
				}
				sh.dropped = true
				st.Absorb(sh.s, sh.rate)
				owe(sh.s)
			case 4:
				st.Switch()
			}
			if !st.Pending() {
				check(op)
			}
		}
		for st.Pending() {
			st.Switch()
		}
		check(-1)
	}
}
