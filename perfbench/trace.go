package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Name is
// "<layer>.<operation>"; Trace groups the spans of one window, probe or
// pass; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64
	Parent int64
	Trace  string
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the module part of the span name.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps every span in memory until the run writes them out.
// All methods are safe for concurrent use.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// id reserves a span ID, for a parent whose span is recorded after its
// children.
func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span, under a fresh ID unless one was
// reserved with id, and returns the ID.
func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// snapshot returns the spans recorded so far, ordered by ID.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// writeNDJSON writes the spans as one JSON object per line, times in
// microseconds since the tracer's epoch.
func writeNDJSON(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			ID      int64   `json:"id"`
			Parent  int64   `json:"parent,omitempty"`
			Trace   string  `json:"trace"`
			Name    string  `json:"name"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
		}{s.ID, s.Parent, s.Trace, s.Name, float64(s.Start) / 1e3, float64(s.End) / 1e3}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children that overlap each
// other (parallel workers) are counted once, as their union.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [start, end) the union of the spans'
// intervals covers.
func covered(start, end time.Duration, spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(spans))
	for _, c := range spans {
		a, b := max(c.Start, start), min(c.End, end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// layerTable sums span durations (busy) and self times per span name,
// and self times per layer. Every instant inside a root span is in the
// self time of at least one span, so the self times account for the
// roots' wall time; where children run in parallel they add up to more.
type layerTable struct {
	busy       map[string]time.Duration // by span name
	selfByName map[string]time.Duration
	self       map[string]time.Duration // by layer
	total      time.Duration            // sum of all self times
}

func tabulate(spans []span) layerTable {
	st := selfTimes(spans)
	lt := layerTable{
		busy:       make(map[string]time.Duration),
		selfByName: make(map[string]time.Duration),
		self:       make(map[string]time.Duration),
	}
	for _, s := range spans {
		lt.busy[s.Name] += s.dur()
		lt.selfByName[s.Name] += st[s.ID]
		lt.self[s.layer()] += st[s.ID]
		lt.total += st[s.ID]
	}
	return lt
}

// shares returns each layer's fraction of the total self time.
func (lt layerTable) shares() map[string]float64 {
	out := make(map[string]float64, len(lt.self))
	for l, d := range lt.self {
		if lt.total > 0 {
			out[l] = float64(d) / float64(lt.total)
		}
	}
	return out
}

// print writes the per-layer self-time table, largest first.
func (lt layerTable) print(w io.Writer, title string) {
	fmt.Fprintf(w, "%s: self time, total %.1f ms\n", title, ms(lt.total))
	layers := make([]string, 0, len(lt.self))
	for l := range lt.self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return lt.self[layers[i]] > lt.self[layers[j]] })
	sh := lt.shares()
	for _, l := range layers {
		fmt.Fprintf(w, "  %-12s %10.1f ms  %5.1f%%\n", l, ms(lt.self[l]), 100*sh[l])
	}
}

// scope is where a layer wrapper files its spans: under a fixed parent
// (hold == false), or held back until the parent span is known and
// adopt files them under it.
type scope struct {
	t *tracer

	mu     sync.Mutex
	trace  string
	parent int64
	hold   bool
	held   []span
}

// recordSpan files one finished span of a wrapped layer. A span without
// a parent of its own goes under the scope's parent.
func (sc *scope) recordSpan(s span) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if s.Parent == 0 {
		s.Parent = sc.parent
	}
	s.Trace = sc.trace
	if sc.hold {
		sc.held = append(sc.held, s)
		return
	}
	sc.t.add(s)
}

// set points later spans at a new parent and trace.
func (sc *scope) set(trace string, parent int64) {
	sc.mu.Lock()
	sc.trace, sc.parent = trace, parent
	sc.mu.Unlock()
}

// adopt files every held span under trace, those without a parent of
// their own under parent, and returns them.
func (sc *scope) adopt(trace string, parent int64) []span {
	sc.mu.Lock()
	held := sc.held
	sc.held = nil
	sc.mu.Unlock()
	for i := range held {
		if held[i].Parent == 0 {
			held[i].Parent = parent
		}
		held[i].Trace = trace
		held[i].ID = sc.t.add(held[i])
	}
	return held
}
