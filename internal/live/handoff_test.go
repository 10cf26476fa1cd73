package live

import (
	"bytes"
	"testing"
	"time"

	"p2pmss/internal/content"
)

// The hand-off regressions below stream 64 packets of 32 B at 400
// pkt/s with H=3, h=2 and Delta=100 ms: each initial peer sends its 32
// packets in ~160 ms, while a parent's mark lies 2·Delta·rate = 40
// packets past its reported offset — beyond the end of its stream. A
// switch tied to the transmit position reaching the mark would never
// apply; the switch must fire MarkDelta after planning instead.

// TestHandoffPastStreamEndApplies: after the session completes, every
// activated peer applies its planned switches and quiesces.
func TestHandoffPastStreamEndApplies(t *testing.T) {
	data := randomData(64*32, 7)
	c, err := StartCluster(ClusterConfig{
		Content:  content.New("m", data, 32),
		Peers:    8,
		H:        3,
		Interval: 2,
		Rate:     400,
		Delta:    100 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Wait(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Bytes(); !ok || !bytes.Equal(got, data) {
		t.Fatal("cluster content mismatch")
	}
	// Quiesced with the idle clock satisfied checks only "stream sent,
	// nothing pending".
	deadline := time.Now().Add(5 * time.Second)
	for {
		var stuck []int
		for i, p := range c.Peers {
			if p.Active() && !p.Quiesced(time.Now().Add(time.Hour), time.Second) {
				stuck = append(stuck, i)
			}
		}
		if len(stuck) == 0 {
			return
		}
		if time.Now().After(deadline) {
			for _, i := range stuck {
				p := c.Peers[i]
				p.mu.Lock()
				t.Errorf("peer %d never quiesced: pos %d/%d, switch pending %v",
					i, p.st.Pos, len(p.st.Seq), p.st.Pending())
				p.mu.Unlock()
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestNodeReapsAfterHandoffPastStreamEnd: a Node with ReapAfter set
// reaps every serving session of that setting (a switch stuck pending
// would keep its peer from ever quiescing).
func TestNodeReapsAfterHandoffPastStreamEnd(t *testing.T) {
	data := randomData(64*32, 7)
	store := content.NewStore()
	store.Put(content.New("m", data, 32))
	nc, err := StartNodes(NodesConfig{
		Nodes:     8,
		Store:     store,
		H:         3,
		Interval:  2,
		Delta:     100 * time.Millisecond,
		ReapAfter: 100 * time.Millisecond,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	ls, err := nc.Open(0, SessionConfig{ContentID: "m", ContentSize: len(data), PacketSize: 32, Rate: 400})
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Wait(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, ok := ls.Bytes(); !ok || !bytes.Equal(got, data) {
		t.Fatal("session content mismatch")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		serving := 0
		for _, nd := range nc.Nodes {
			serving += len(nd.Serving())
		}
		if serving == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d serving sessions never reaped", serving)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
