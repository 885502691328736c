package main

import (
	"testing"
	"time"
)

func TestScheduleDueTimes(t *testing.T) {
	// 25 frames/s per stream; a stagger of one frame spreads the four
	// streams evenly across each frame period.
	s := schedule{streams: 4, rate: 100, stagger: 1}
	for _, c := range []struct {
		stream, frame int
		want          time.Duration
	}{
		{0, 0, 0},
		{1, 0, 10 * time.Millisecond},
		{3, 0, 30 * time.Millisecond},
		{0, 1, 40 * time.Millisecond},
		{2, 10, 420 * time.Millisecond},
	} {
		if got := s.offset(c.stream, c.frame); got != c.want {
			t.Errorf("offset(%d, %d) = %v, want %v", c.stream, c.frame, got, c.want)
		}
	}

	// A larger stagger shifts stream i by i·stagger/streams of its own
	// frames.
	s.stagger = 40
	if got, want := s.offset(3, 0), 1200*time.Millisecond; got != want {
		t.Errorf("staggered offset(3, 0) = %v, want %v", got, want)
	}
	if got, want := s.offset(1, 5), 600*time.Millisecond; got != want {
		t.Errorf("staggered offset(1, 5) = %v, want %v", got, want)
	}
}

// TestScheduleLatency checks the open-loop latency rule: time from the
// due time, not from when the frame happened to be sent.
func TestScheduleLatency(t *testing.T) {
	s := schedule{streams: 16, rate: 1000, stagger: 40}
	start := time.Unix(1000, 0)
	due := start.Add(s.offset(5, 79)) // (79·16 + 5·40) / 1000 s = 1.464 s
	if got, want := due.Sub(start), 1464*time.Millisecond; got != want {
		t.Fatalf("due = start + %v, want %v", got, want)
	}
	observed := due.Add(37 * time.Millisecond)
	if got := s.latency(start, observed, 5, 79); got != 37*time.Millisecond {
		t.Fatalf("latency = %v, want 37ms", got)
	}
	// A result observed before its frame was due (impossible in a run)
	// would read negative rather than be clamped.
	if got := s.latency(start, due.Add(-time.Millisecond), 5, 79); got != -time.Millisecond {
		t.Fatalf("early latency = %v", got)
	}
}

func TestScheduleOrder(t *testing.T) {
	s := schedule{streams: 3, rate: 30, stagger: 2}
	ev := s.order(4)
	if len(ev) != 12 {
		t.Fatalf("%d events, want 12", len(ev))
	}
	for k := 1; k < len(ev); k++ {
		if s.offset(ev[k][0], ev[k][1]) < s.offset(ev[k-1][0], ev[k-1][1]) {
			t.Fatalf("event %d %v is due before event %d %v", k, ev[k], k-1, ev[k-1])
		}
	}
}

func TestBacklogGrows(t *testing.T) {
	end := 4 * time.Second
	steady, growing := []backlogSample{}, []backlogSample{}
	for at := time.Duration(0); at < end; at += 20 * time.Millisecond {
		steady = append(steady, backlogSample{at, 60 + int64(at/time.Millisecond)%7})
		growing = append(growing, backlogSample{at, int64(at / time.Millisecond / 5)})
	}
	if backlogGrows(steady, end, 1000) {
		t.Error("a steady backlog was reported as growing")
	}
	if !backlogGrows(growing, end, 1000) {
		t.Error("a backlog growing by 200 frames/s at 1000 frames/s was not reported")
	}
	if backlogGrows(growing, end, 4000) {
		t.Error("a backlog growing by 200 frames/s at 4000 frames/s was reported")
	}
	if backlogGrows(nil, end, 1000) {
		t.Error("no samples reported as growing")
	}
}
