package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"bfc/internal/units"
)

func TestRingBasics(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 3; i++ {
		r.Record(Event{At: units.Time(i), Kind: KindDrop})
	}
	if len(r.Events()) != 3 || r.Seen() != 3 || r.Overwritten() != 0 {
		t.Fatalf("len=%d seen=%d over=%d", len(r.Events()), r.Seen(), r.Overwritten())
	}
	got := r.Events()
	for i, e := range got {
		if e.At != units.Time(i) {
			t.Fatalf("event %d at %v", i, e.At)
		}
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{At: units.Time(i), Kind: KindDrop})
	}
	if len(r.Events()) != 4 {
		t.Fatalf("len=%d", len(r.Events()))
	}
	if r.Overwritten() != 6 {
		t.Fatalf("overwritten=%d", r.Overwritten())
	}
	got := r.Events()
	want := []units.Time{6, 7, 8, 9}
	for i, e := range got {
		if e.At != want[i] {
			t.Fatalf("event %d: at %v, want %v", i, e.At, want[i])
		}
	}
}

func TestKindTextRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		var back Kind
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if back != k {
			t.Fatalf("%v round-tripped to %v", k, back)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{At: 10 * units.Microsecond, Kind: KindFlowStart, Node: 1, Port: -1, Queue: -1, Flow: 7, Value: 4096},
		{At: 11 * units.Microsecond, Kind: KindPFCPause, Node: 2, Port: 3, Queue: -1},
		{At: 12 * units.Microsecond, Kind: KindBFCResume, Node: 2, Port: 3, Queue: 9},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out []Event
	for dec := json.NewDecoder(&buf); dec.More(); {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		out = append(out, ev)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
}

func TestJSONLDeterministic(t *testing.T) {
	events := []Event{
		{At: 1, Kind: KindDrop, Node: 5, Flow: 3, Value: 1500},
		{At: 2, Kind: KindLinkDown, Node: 1, Value: 4},
	}
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same events differ")
	}
}

func TestChromeTraceBalancedAndParseable(t *testing.T) {
	events := []Event{
		{At: 1 * units.Microsecond, Kind: KindFlowStart, Node: 1, Flow: 7, Value: 100},
		{At: 2 * units.Microsecond, Kind: KindPFCPause, Node: 2, Port: 1},
		{At: 3 * units.Microsecond, Kind: KindBFCPause, Node: 2, Port: 0, Queue: 4},
		{At: 4 * units.Microsecond, Kind: KindPFCResume, Node: 2, Port: 1},
		{At: 5 * units.Microsecond, Kind: KindDrop, Node: 3, Port: 2, Flow: 7, Value: 1040},
		// A resume with no matching pause (before the ring window) must be
		// dropped, and the still-open BFC pause must be closed at trace end.
		{At: 6 * units.Microsecond, Kind: KindPFCResume, Node: 9, Port: 9},
		{At: 7 * units.Microsecond, Kind: KindFlowFinish, Node: 4, Flow: 7},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, TraceConfig{RunName: "t"}, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int64   `json:"pid"`
			TID  int64   `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	// Every B must have a matching E on the same (pid, tid).
	type track struct {
		pid, tid int64
	}
	open := map[track]int{}
	for _, te := range doc.TraceEvents {
		switch te.Ph {
		case "B":
			open[track{te.PID, te.TID}]++
		case "E":
			open[track{te.PID, te.TID}]--
		}
	}
	for tr, n := range open {
		if n != 0 {
			t.Errorf("unbalanced B/E on pid=%d tid=%d: %+d", tr.pid, tr.tid, n)
		}
	}
}
