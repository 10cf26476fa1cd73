package coord

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"p2pmss/internal/flight"
	"p2pmss/internal/obs"
	"p2pmss/internal/overlay"
)

type goldenCase struct {
	name  string
	proto Protocol
	cfg   Config
}

// goldenCases are small runs that together reach every data-plane path
// of the simulator: both planes, the four protocols with a hand-off or
// division, loss, repair, playback, crashes (mid-run and at start, so
// shares are re-absorbed), and control-plane-only runs.
func goldenCases() []goldenCase {
	base := func() Config {
		cfg := DefaultConfig()
		cfg.N, cfg.H, cfg.Rate = 10, 3, 5
		return cfg
	}
	finite := func(n int64) Config {
		cfg := base()
		cfg.DataPlane, cfg.Loop, cfg.TrackDelivery, cfg.ContentLen = true, false, true, n
		return cfg
	}
	steady := func(mode DataPlaneMode) Config {
		cfg := base()
		cfg.DataPlane, cfg.PlaneMode, cfg.Jitter = true, mode, 0
		cfg.Settle, cfg.Window, cfg.ContentLen = 5, 20, 3000
		return cfg
	}
	type gc = goldenCase
	var out []gc
	for _, proto := range []Protocol{DCoP, TCoP, Unicast, Broadcast} {
		out = append(out,
			gc{proto + "/control", proto, base()},
			gc{proto + "/packet", proto, finite(90)},
			gc{proto + "/packet-loop", proto, steady(PlanePacket)},
			gc{proto + "/fluid", proto, steady(PlaneFluid)},
		)
		loss := finite(120)
		loss.Interval, loss.LossProb = 2, 0.05
		out = append(out, gc{proto + "/loss", proto, loss})
	}
	for _, proto := range []Protocol{DCoP, TCoP} {
		rep := finite(80)
		rep.Repair = true
		rep.CrashPeers, rep.CrashAt = []overlay.PeerID{1, 3, 4, 6, 8, 9}, 8
		out = append(out, gc{proto + "/repair-crash", proto, rep})

		play := finite(80)
		play.Playback, play.PlaybackDelay = true, 0.5
		out = append(out, gc{proto + "/playback", proto, play})

		dead := finite(60)
		dead.CrashPeers = []overlay.PeerID{2, 5, 7}
		dead.Retries = 2
		out = append(out, gc{proto + "/crash-at-start", proto, dead})

		deadCtl := base()
		deadCtl.CrashPeers = []overlay.PeerID{2, 5, 7}
		out = append(out, gc{proto + "/control-crash-at-start", proto, deadCtl})

		deadFluid := steady(PlaneFluid)
		deadFluid.CrashPeers = []overlay.PeerID{2, 5, 7}
		out = append(out, gc{proto + "/fluid-crash-at-start", proto, deadFluid})
	}
	return out
}

// goldenLine renders one run: the Result (engine outcomes summarized
// as counts plus a digest of the assigned packets) and a digest of the
// run's flight log, which pins the control-plane event order.
func goldenLine(t *testing.T, name string, proto Protocol, cfg Config) string {
	t.Helper()
	fs := flight.NewSet(1 << 16)
	cfg.Obs = obs.Observability{Flight: fs}
	res, err := Run(proto, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	outs := make([]string, len(res.Outcomes))
	for i, o := range res.Outcomes {
		outs[i] = fmt.Sprintf("%d:%v/%d/%v/%v/r%d/%d+%d/assigned=%d:%x",
			o.ID, o.Active, o.Parent, o.Committed, o.Children, o.Round,
			o.Retried, o.Absorbed, len(o.Assigned), digest([]byte(o.Assigned.String())))
	}
	res.Outcomes = nil
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var fl bytes.Buffer
	if err := fs.DumpJSONL(&fl); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s %s\n  outcomes %v\n  flight %d %x\n",
		name, js, outs, len(fs.Events()), digest(fl.Bytes()))
}

func digest(b []byte) []byte {
	h := sha256.Sum256(b)
	return h[:8]
}

// TestGoldenResults pins the simulator's exact output for small runs
// on both data planes. A refactor of the data plane must leave every
// line unchanged; a deliberate behaviour change deletes the file, runs
// the test once to record it afresh, and says so in the change log.
func TestGoldenResults(t *testing.T) {
	var got bytes.Buffer
	for _, c := range goldenCases() {
		got.WriteString(goldenLine(t, c.name, c.proto, c.cfg))
	}
	path := filepath.Join("testdata", "golden_results.txt")
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s; rerun to compare against it", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("golden mismatch at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
