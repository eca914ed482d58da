package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestAddAndEvents(t *testing.T) {
	tr := New()
	tr.Add("lb", "cache %d selected", 2)
	tr.Add("cache-miss", "empty")
	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Kind != "lb" || events[0].Detail != "cache 2 selected" {
		t.Errorf("event 0 = %+v", events[0])
	}
	if got := tr.Kinds(); got[1] != "cache-miss" {
		t.Errorf("kinds = %v", got)
	}
	// Events returns a copy.
	events[0].Kind = "mutated"
	if tr.Events()[0].Kind != "lb" {
		t.Error("Events exposed internal slice")
	}
}

func TestString(t *testing.T) {
	tr := New()
	tr.Add("upstream", "asks root")
	out := tr.String()
	if !strings.Contains(out, " 1. upstream: asks root") {
		t.Errorf("String = %q", out)
	}
}

func TestContextPropagation(t *testing.T) {
	tr := New()
	ctx := With(context.Background(), tr)
	if got := From(ctx); got != tr {
		t.Fatal("From lost the trace")
	}
	From(ctx).Add("k", "v%d", 1)
	if len(tr.Events()) != 1 {
		t.Errorf("events = %d", len(tr.Events()))
	}
}

func TestAddfWithoutCollectorIsNoop(t *testing.T) {
	// A guarded call site adds nothing to a bare context.
	if tr := From(context.Background()); tr != nil {
		tr.Add("k", "v")
	}
	if From(context.Background()) != nil {
		t.Error("trace found in bare context")
	}
}

func TestConcurrentAdd(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.Add("k", "x")
			}
		}()
	}
	wg.Wait()
	if len(tr.Events()) != 1600 {
		t.Errorf("events = %d", len(tr.Events()))
	}
}
