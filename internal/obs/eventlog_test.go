package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestEventLogOrdering(t *testing.T) {
	l := NewEventLog()
	l.Emit(EventNote, "first")
	l.Emit(EventNote, "second", Attr{Key: "k", Value: "v"})
	l.EmitDegradation(Degradation{Stage: "probe", Kind: "conn-retries", Count: 3})
	reg := NewRegistry()
	reg.Counter("n").Add(7)
	l.EmitMetrics("final", reg)

	evs := l.Events()
	if len(evs) != 4 || l.Len() != 4 {
		t.Fatalf("events = %d, Len = %d, want 4", len(evs), l.Len())
	}
	for i, e := range evs {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d Seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.TUS < 0 {
			t.Fatalf("event %d has negative timestamp %d", i, e.TUS)
		}
		if i > 0 && e.TUS < evs[i-1].TUS {
			t.Fatalf("timestamps went backwards: %d after %d", e.TUS, evs[i-1].TUS)
		}
	}
	if evs[2].Type != EventDegradation || evs[2].Name != "conn-retries" {
		t.Fatalf("degradation event = %+v", evs[2])
	}
	if evs[3].Metrics == nil || evs[3].Metrics.Counters["n"] != 7 {
		t.Fatalf("metrics event = %+v", evs[3])
	}
}

func TestEventLogJSONL(t *testing.T) {
	l := NewEventLog()
	l.Emit(EventNote, "a")
	l.Emit(EventNote, "b")
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		lines++
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
	}
	if lines != 2 {
		t.Fatalf("lines = %d, want 2", lines)
	}
}

func TestEventLogSpanIntegration(t *testing.T) {
	l := NewEventLog()
	ctx := ContextWithEventLog(context.Background(), l)
	sctx, root := StartSpan(ctx, "probe")
	_, child := StartSpan(sctx, "sweep")
	child.SetAttr("targets", 9)
	child.End()
	root.End()
	root.End() // idempotent: must not double-log

	evs := l.Events()
	types := make([]string, len(evs))
	for i, e := range evs {
		types[i] = e.Type + ":" + e.Name
	}
	want := []string{
		"stage-start:probe", "span-start:sweep",
		"span-end:sweep", "stage-end:probe",
	}
	if fmt.Sprint(types) != fmt.Sprint(want) {
		t.Fatalf("event sequence = %v, want %v", types, want)
	}
	if evs[2].WallNS <= 0 {
		t.Fatalf("span-end missing wall time: %+v", evs[2])
	}
	if len(evs[2].Attrs) != 1 || evs[2].Attrs[0].Key != "targets" {
		t.Fatalf("span-end lost attrs: %+v", evs[2])
	}
}

// TestEventLogConcurrent drives concurrent span and metric emission from
// worker pools of 1, 2, and 8 — the PR 2 fan-out shapes — and checks the
// result is one coherent serialized stream: every event present, seq dense,
// timestamps monotone, and the JSONL form line-parseable. Run under -race
// (make race covers internal/obs) this doubles as the data-race gate for
// the log's single-mutex design.
func TestEventLogConcurrent(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			l := NewEventLog()
			reg := NewRegistry()
			ctx := ContextWithEventLog(context.Background(), l)
			const perWorker = 50
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						_, sp := StartSpan(ctx, fmt.Sprintf("w%d-op%d", w, i))
						reg.Counter("ops_total").Inc()
						sp.End()
						if i%10 == 0 {
							l.EmitMetrics("tick", reg)
						}
					}
				}(w)
			}
			wg.Wait()

			want := workers*perWorker*2 + workers*(perWorker/10)
			evs := l.Events()
			if len(evs) != want {
				t.Fatalf("events = %d, want %d", len(evs), want)
			}
			for i, e := range evs {
				if e.Seq != int64(i+1) {
					t.Fatalf("seq not dense at %d: %d", i, e.Seq)
				}
				if i > 0 && e.TUS < evs[i-1].TUS {
					t.Fatalf("timestamps not monotone at %d", i)
				}
			}
			var out bytes.Buffer
			if err := l.WriteJSONL(&out); err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(&out)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			var lines int
			for sc.Scan() {
				var e Event
				if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
					t.Fatalf("JSONL line %d corrupt: %v", lines+1, err)
				}
				lines++
			}
			if lines != want {
				t.Fatalf("JSONL lines = %d, want %d", lines, want)
			}
		})
	}
}

func TestEventLogNilSafety(t *testing.T) {
	var l *EventLog
	l.Emit(EventNote, "x")
	l.EmitMetrics("x", nil)
	l.EmitDegradation(Degradation{})
	if l.Len() != 0 || l.Events() != nil {
		t.Fatal("nil log must be empty")
	}
	if err := l.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if !l.StartTime().IsZero() {
		t.Fatal("nil log must have zero start time")
	}
	// A context without a log yields nil, and spans still work.
	if EventLogFrom(context.Background()) != nil {
		t.Fatal("expected nil log from bare context")
	}
	_, sp := StartSpan(context.Background(), "s")
	sp.End()
}
