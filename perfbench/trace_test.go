package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "bench.pass", Start: ms(0), End: ms(100)},
		// Two children running in parallel: their union, 10–50, counts once.
		{ID: 2, Parent: 1, Name: "core.select", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "core.select", Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 2, Name: "device.submit", Start: ms(15), End: ms(20)},
		{ID: 5, Parent: 1, Name: "query.answer", Start: ms(60), End: ms(70)},
		// A child reaching past its parent counts only inside it.
		{ID: 6, Parent: 1, Name: "track.track", Start: ms(90), End: ms(120)},
	}
	got := selfTimes(spans)
	want := map[int64]time.Duration{1: ms(40), 2: ms(15), 3: ms(30), 4: ms(5), 5: ms(10), 6: ms(30)}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time = %v, want %v", id, got[id], w)
		}
	}

	lt := tabulate(spans)
	if lt.self["core"] != ms(45) || lt.busy["core.select"] != ms(50) || lt.selfByName["core.select"] != ms(45) {
		t.Errorf("core: self %v busy %v, want 45ms and 50ms", lt.self["core"], lt.busy["core.select"])
	}
	if lt.total != ms(130) {
		t.Errorf("total self time = %v, want 130ms", lt.total)
	}
	if sh := lt.shares(); sh["bench"] != 40.0/130 {
		t.Errorf("bench share = %v", sh["bench"])
	}
}

func TestCovered(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	if c := covered(0, ms(10), nil); c != 0 {
		t.Fatalf("covered by nothing = %v", c)
	}
	kids := []span{{Start: ms(5), End: ms(8)}, {Start: ms(0), End: ms(2)}, {Start: ms(1), End: ms(3)}, {Start: ms(8), End: ms(9)}}
	if c := covered(0, ms(10), kids); c != ms(7) {
		t.Fatalf("covered = %v, want 7ms", c)
	}
}

// TestScopeAdopt checks that held spans are filed under the parent
// given later, except those that already name their own parent.
func TestScopeAdopt(t *testing.T) {
	tr := newTracer()
	sc := &scope{t: tr, hold: true}
	sel := tr.id()
	sc.recordSpan(span{ID: sel, Name: "core.select"})
	sc.recordSpan(span{Parent: sel, Name: "device.submit"})
	if n := len(tr.snapshot()); n != 0 {
		t.Fatalf("%d spans filed before adopt", n)
	}
	push := tr.id()
	held := sc.adopt("w1", push)
	if len(held) != 2 || held[0].ID != sel || held[0].Parent != push || held[1].Parent != sel || held[1].Trace != "w1" {
		t.Fatalf("adopted %+v", held)
	}
	if n := len(tr.snapshot()); n != 2 {
		t.Fatalf("%d spans filed after adopt, want 2", n)
	}
}
