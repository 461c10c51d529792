package switchsim_test

import (
	"fmt"
	"slices"
	"testing"

	"bfc/internal/bloom"
	"bfc/internal/netsim"
	"bfc/internal/packet"
	"bfc/internal/switchsim"
	"bfc/internal/telemetry"
	"bfc/internal/units"
)

// kindCount tallies the ring's events by kind.
func kindCount(ring *telemetry.Ring) map[telemetry.Kind]int {
	m := map[telemetry.Kind]int{}
	for _, ev := range ring.Events() {
		m[ev.Kind]++
	}
	return m
}

// TestRecorderPFCPauseResume re-runs the PFC signaling scenario with a flight
// recorder attached and checks the pause and resume edges are traced against
// the right ingress port.
func TestRecorderPFCPauseResume(t *testing.T) {
	ring := telemetry.NewRing(256)
	ts := newTestSwitch(t, func(c *switchsim.Config) {
		c.BufferSize = 20 * units.KB
		c.EnablePFC = true
		c.PFCThresholdFrac = 0.11
		c.Recorder = ring
	})
	ts.attach(0)
	hosts := ts.topo.Hosts()
	f := &packet.Flow{ID: 1, Src: hosts[0], Dst: hosts[1]}
	for seq := 0; seq < 5; seq++ {
		ts.sw.ReceivePacket(0, dataPacket(f, seq))
	}
	ts.sched.RunUntil(10 * units.Microsecond)
	ts.attach(1)
	ts.sw.ReceivePacket(0, dataPacket(f, 5))
	ts.sched.RunUntil(100 * units.Microsecond)

	kinds := kindCount(ring)
	if kinds[telemetry.KindPFCPause] != 1 || kinds[telemetry.KindPFCResume] != 1 {
		t.Fatalf("recorded %d pause / %d resume events, want 1 / 1",
			kinds[telemetry.KindPFCPause], kinds[telemetry.KindPFCResume])
	}
	for _, ev := range ring.Events() {
		if ev.Kind == telemetry.KindPFCPause || ev.Kind == telemetry.KindPFCResume {
			if ev.Node != ts.sw.ID() || ev.Port != 0 {
				t.Fatalf("PFC event attributed to node %d port %d, want switch %d port 0",
					ev.Node, ev.Port, ts.sw.ID())
			}
		}
	}
}

// TestRecorderBFCQueueLifecycle traces a BFC queue through assignment, a
// downstream bloom-filter pause, and the resume that releases it.
func TestRecorderBFCQueueLifecycle(t *testing.T) {
	ring := telemetry.NewRing(256)
	bfc := bfcConfig(false)
	ts := newTestSwitch(t, func(c *switchsim.Config) {
		c.BFC = bfc
		c.Recorder = ring
	})
	ts.attach(1)
	hosts := ts.topo.Hosts()
	f := &packet.Flow{ID: 1, Src: hosts[0], Dst: hosts[1]}

	pauses := bloom.NewCounting(bfc.Bloom)
	pauses.Add(f.VFIDOf(bfc.NumVFIDs))
	filter := pauses.Snapshot(nil)
	ts.sw.ReceiveControl(1, netsim.BFCPauseFrame{Filter: filter})
	ts.sw.ReceivePacket(0, dataPacket(f, 0))
	ts.sched.RunUntil(50 * units.Microsecond)
	ts.sw.ReceiveControl(1, netsim.BFCPauseFrame{Filter: bloom.NewCounting(bfc.Bloom).Snapshot(nil)})
	ts.sched.RunUntil(100 * units.Microsecond)

	kinds := kindCount(ring)
	if kinds[telemetry.KindQueueAssign] != 1 {
		t.Fatalf("recorded %d queue assignments, want 1", kinds[telemetry.KindQueueAssign])
	}
	if kinds[telemetry.KindBFCPause] == 0 || kinds[telemetry.KindBFCResume] == 0 {
		t.Fatalf("missing BFC pause/resume events: %v", kinds)
	}
	var assignQ int32 = -1
	for _, ev := range ring.Events() {
		if ev.Kind == telemetry.KindQueueAssign {
			if ev.Flow != f.ID || ev.Port != 1 {
				t.Fatalf("assignment traced as flow %d port %d, want flow %d port 1", ev.Flow, ev.Port, f.ID)
			}
			assignQ = ev.Queue
		}
	}
	for _, ev := range ring.Events() {
		if ev.Kind == telemetry.KindBFCPause && ev.Queue == assignQ && ev.Port == 1 {
			return
		}
	}
	t.Fatalf("no BFC pause recorded for assigned queue %d: %+v", assignQ, ring.Events())
}

// TestRecorderOverflowQueuePause pauses and resumes a data queue and the
// overflow queue the full flow table sent a second flow to. With one VFID
// both flows match the filter; each refresh walks the data queues, then the
// overflow queue, which reports queue index NumQueues.
func TestRecorderOverflowQueuePause(t *testing.T) {
	ring := telemetry.NewRing(256)
	bfc := bfcConfig(false)
	bfc.NumVFIDs = 1
	ts := newStarSwitch(t, 12, func(c *switchsim.Config) {
		c.BFC = bfc
		c.Recorder = ring
	})
	ts.fillTable(tableRoom-1, 1) // room for one more flow
	hosts := ts.topo.Hosts()
	first := &packet.Flow{ID: 1, Src: hosts[0], Dst: hosts[1], SrcPort: 1}
	second := &packet.Flow{ID: 2, Src: hosts[2], Dst: hosts[1], SrcPort: 2}
	ts.sw.ReceivePacket(0, dataPacket(first, 0))
	ts.sw.ReceivePacket(2, dataPacket(second, 0)) // table full: overflow queue
	pauses := bloom.NewCounting(bfc.Bloom)
	pauses.Add(second.VFIDOf(bfc.NumVFIDs))
	ts.sw.ReceiveControl(1, netsim.BFCPauseFrame{Filter: pauses.Snapshot(nil)})
	ts.sw.ReceiveControl(1, netsim.BFCPauseFrame{Filter: bloom.NewCounting(bfc.Bloom).Snapshot(nil)})

	var got []string
	for _, ev := range ring.Events() {
		if ev.Kind == telemetry.KindBFCPause || ev.Kind == telemetry.KindBFCResume {
			got = append(got, fmt.Sprintf("%v port=%d queue=%d", ev.Kind, ev.Port, ev.Queue))
		}
	}
	want := []string{
		"bfc-pause port=1 queue=0", "bfc-pause port=1 queue=8",
		"bfc-resume port=1 queue=0", "bfc-resume port=1 queue=8",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("pause events %q, want %q", got, want)
	}
}

// TestRecorderAdmissionDrop checks buffer-exhaustion drops are traced with
// the dropped flow attached.
func TestRecorderAdmissionDrop(t *testing.T) {
	ring := telemetry.NewRing(256)
	ts := newTestSwitch(t, func(c *switchsim.Config) {
		c.BufferSize = 3 * units.KB // fits 2 full packets + headers, not 4
		c.Recorder = ring
	})
	hosts := ts.topo.Hosts()
	f := &packet.Flow{ID: 9, Src: hosts[0], Dst: hosts[1]}
	for seq := 0; seq < 4; seq++ {
		ts.sw.ReceivePacket(0, dataPacket(f, seq))
	}
	if ts.sw.Stats().Drops == 0 {
		t.Fatal("test did not provoke an admission drop")
	}
	kinds := kindCount(ring)
	if uint64(kinds[telemetry.KindDrop]) != ts.sw.Stats().Drops {
		t.Fatalf("recorded %d drop events, switch counted %d", kinds[telemetry.KindDrop], ts.sw.Stats().Drops)
	}
	for _, ev := range ring.Events() {
		if ev.Kind == telemetry.KindDrop && ev.Flow != f.ID {
			t.Fatalf("drop traced with flow %d, want %d", ev.Flow, f.ID)
		}
	}
}
