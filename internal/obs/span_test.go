package obs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestSpanNestingAndOrder(t *testing.T) {
	tr := NewTrace()
	ctx := ContextWithTrace(context.Background(), tr)

	rctx, run := StartSpan(ctx, "run")
	_, s1 := StartSpan(rctx, "identify")
	s1.SetAttr("records", 42)
	time.Sleep(time.Millisecond)
	s1.End()
	pctx, s2 := StartSpan(rctx, "probe")
	_, inner := StartSpan(pctx, "sweep")
	inner.End()
	s2.End()
	run.End()

	recs := tr.Records()
	if len(recs) != 1 || recs[0].Name != "run" {
		t.Fatalf("roots = %+v, want single run span", recs)
	}
	kids := recs[0].Children
	if len(kids) != 2 || kids[0].Name != "identify" || kids[1].Name != "probe" {
		t.Fatalf("children = %+v, want [identify probe] in start order", kids)
	}
	if len(kids[1].Children) != 1 || kids[1].Children[0].Name != "sweep" {
		t.Fatalf("probe children = %+v, want [sweep]", kids[1].Children)
	}
	if kids[0].WallNS <= 0 {
		t.Fatalf("identify wall = %d, want > 0", kids[0].WallNS)
	}
	if len(kids[0].Attrs) != 1 || kids[0].Attrs[0] != (Attr{Key: "records", Value: "42"}) {
		t.Fatalf("attrs = %+v", kids[0].Attrs)
	}
}

func TestSpanError(t *testing.T) {
	tr := NewTrace()
	ctx := ContextWithTrace(context.Background(), tr)
	cctx, cancel := context.WithCancel(ctx)
	_, sp := StartSpan(cctx, "probe")
	cancel()
	sp.SetError(cctx.Err())
	sp.End()
	recs := tr.Records()
	if recs[0].Err != context.Canceled.Error() {
		t.Fatalf("err = %q, want %q", recs[0].Err, context.Canceled)
	}
	// SetError(nil) must not clobber anything.
	sp.SetError(nil)
	if tr.Records()[0].Err == "" {
		t.Fatal("SetError(nil) erased the recorded error")
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTrace()
	ctx := ContextWithTrace(context.Background(), tr)
	_, sp := StartSpan(ctx, "x")
	time.Sleep(time.Millisecond)
	sp.End()
	first := tr.Records()[0].WallNS
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if got := tr.Records()[0].WallNS; got != first {
		t.Fatalf("second End changed wall: %d → %d", first, got)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewTrace()
	ctx := ContextWithTrace(context.Background(), tr)
	rctx, run := StartSpan(ctx, "run")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := StartSpan(rctx, "worker")
			sp.SetAttr("k", "v")
			sp.End()
		}()
	}
	wg.Wait()
	run.SetError(errors.New("boom"))
	run.End()
	recs := tr.Records()
	if len(recs[0].Children) != 32 {
		t.Fatalf("children = %d, want 32", len(recs[0].Children))
	}
	if recs[0].Err != "boom" {
		t.Fatalf("err = %q", recs[0].Err)
	}
}

func TestStartSpanWithoutTrace(t *testing.T) {
	_, sp := StartSpan(context.Background(), "detached")
	sp.End()
	if rec := sp.Record(); rec.Name != "detached" {
		t.Fatalf("record = %+v", rec)
	}
}

// TestSpanCPUOnlyOnRoot: concurrent child spans report no CPU — the
// process-wide delta they would see is their siblings' CPU too — while the
// root stage span reports the CPU burnt under it.
func TestSpanCPUOnlyOnRoot(t *testing.T) {
	if processCPUTime() == 0 {
		t.Skip("no process CPU clock on this platform")
	}
	tr := NewTrace()
	ctx := ContextWithTrace(context.Background(), tr)
	rctx, root := StartSpan(ctx, "identify")
	var wg sync.WaitGroup
	for _, name := range []string{"emit-shard-0", "emit-shard-1"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			_, sp := StartSpan(rctx, name)
			defer sp.End()
			for start := processCPUTime(); processCPUTime()-start < 20*time.Millisecond; {
			}
		}(name)
	}
	wg.Wait()
	root.End()

	rec := tr.Records()[0]
	if rec.CPUNS <= 0 {
		t.Errorf("root span CPU = %d, want > 0", rec.CPUNS)
	}
	if len(rec.Children) != 2 {
		t.Fatalf("children = %+v, want two shards", rec.Children)
	}
	for _, c := range rec.Children {
		if c.CPUNS != 0 {
			t.Errorf("child %s CPU = %d, want 0", c.Name, c.CPUNS)
		}
	}
}
