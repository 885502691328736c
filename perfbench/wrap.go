package main

import (
	"sync/atomic"
	"time"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/query"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/video"
)

// counters are the work counts the layer wrappers record beside their
// spans, shared by every wrapper of one traced phase.
type counters struct {
	selectCalls, pairs, selected atomic.Int64
	submissions, deviceBusyNS    atomic.Int64
}

// snapshot copies the counts.
func (c *counters) snapshot() callCounts {
	return callCounts{c.selectCalls.Load(), c.pairs.Load(), c.selected.Load(), c.submissions.Load(), c.deviceBusyNS.Load()}
}

// add accumulates a snapshot.
func (c *counters) add(s callCounts) {
	c.selectCalls.Add(s.selectCalls)
	c.pairs.Add(s.pairs)
	c.selected.Add(s.selected)
	c.submissions.Add(s.submissions)
	c.deviceBusyNS.Add(s.deviceBusyNS)
}

// callCounts is a snapshot of the wrapper counters.
type callCounts struct {
	selectCalls, pairs, selected, submissions, deviceBusyNS int64
}

// minDeviceSpan is the shortest device submission recorded as a span.
// Certification replays hundreds of thousands of submissions that only
// charge the virtual clock; they are counted and timed in total, and
// their time stays in the caller's self time.
const minDeviceSpan = 50 * time.Microsecond

// layerScope is one pipeline's tracing state: where its spans go, and
// the Select call (if any) currently running against the live oracle,
// which is the parent of the device submissions it makes.
type layerScope struct {
	*scope
	c          *counters
	liveSelect atomic.Int64
}

// tracedAlgo times core.Algorithm.Select. It forwards core.Cloner, so
// the parallel executor still gets an independent instance per window.
type tracedAlgo struct {
	inner core.Algorithm
	ls    *layerScope
	dev   device.Device // the live oracle's device, to tell live from speculative calls
}

func (a *tracedAlgo) Name() string { return a.inner.Name() }

func (a *tracedAlgo) Select(ps *video.PairSet, o *reid.Oracle, K float64) []video.PairKey {
	t := a.ls.t
	id := t.id()
	// Against the live oracle, device submissions happen inside Select;
	// against a speculative session they happen later, at certification.
	live := o.Device() == a.dev
	if live {
		a.ls.liveSelect.Store(id)
	}
	start := t.now()
	out := a.inner.Select(ps, o, K)
	end := t.now()
	if live {
		a.ls.liveSelect.Store(0)
	}
	a.ls.recordSpan(span{ID: id, Name: "core.select", Start: start, End: end})
	a.ls.c.selectCalls.Add(1)
	a.ls.c.pairs.Add(int64(ps.Len()))
	a.ls.c.selected.Add(int64(len(out)))
	return out
}

func (a *tracedAlgo) CloneAlgorithm() core.Algorithm {
	if c, ok := a.inner.(core.Cloner); ok {
		return &tracedAlgo{inner: c.CloneAlgorithm(), ls: a.ls, dev: a.dev}
	}
	return a
}

// tracedDevice times device submissions. It forwards device.Fallible,
// so the oracle keeps the inner device's failure contract.
type tracedDevice struct {
	inner device.Device
	ls    *layerScope
}

func (d *tracedDevice) Name() string         { return d.inner.Name() }
func (d *tracedDevice) Clock() *device.Clock { return d.inner.Clock() }
func (d *tracedDevice) Submissions() int64   { return d.inner.Submissions() }

func (d *tracedDevice) Submit(nExtract, nDistance int, run func(i int)) {
	start := d.ls.t.now()
	d.inner.Submit(nExtract, nDistance, run)
	d.done(start)
}

func (d *tracedDevice) TrySubmit(nExtract, nDistance int, run func(i int)) error {
	start := d.ls.t.now()
	err := device.AsFallible(d.inner).TrySubmit(nExtract, nDistance, run)
	d.done(start)
	return err
}

func (d *tracedDevice) done(start time.Duration) {
	end := d.ls.t.now()
	d.ls.c.submissions.Add(1)
	d.ls.c.deviceBusyNS.Add(int64(end - start))
	if end-start >= minDeviceSpan {
		d.ls.recordSpan(span{Parent: d.ls.liveSelect.Load(), Name: "device.submit", Start: start, End: end})
	}
}

// tracedPipeline wraps a fresh algorithm and device for one pipeline
// (one video, one stream or one session) under ls.
func tracedPipeline(ls *layerScope, algo core.Algorithm, dev device.Device) (core.Algorithm, device.Device) {
	td := &tracedDevice{inner: dev, ls: ls}
	return &tracedAlgo{inner: algo, ls: ls, dev: td}, td
}

// tracedOp times an incremental operator's Apply: per-window folds of a
// subscribed operator ("apply"), or the one-shot bootstrap inside
// query.HistoricalAnswer ("bootstrap").
type tracedOp struct {
	inner query.Incremental
	ls    *layerScope
	name  string
}

func newTracedOp(ls *layerScope, op query.Incremental, verb string) *tracedOp {
	return &tracedOp{inner: op, ls: ls, name: "query." + op.Kind() + "." + verb}
}

func (o *tracedOp) Kind() string                              { return o.inner.Kind() }
func (o *tracedOp) Results() [][]video.TrackID                { return o.inner.Results() }
func (o *tracedOp) State() query.OperatorState                { return o.inner.State() }
func (o *tracedOp) RestoreState(st query.OperatorState) error { return o.inner.RestoreState(st) }
func (o *tracedOp) Stats() query.OpStats                      { return o.inner.Stats() }

func (o *tracedOp) Apply(v query.TrackView, changed, removed []video.TrackID) []query.Delta {
	start := o.ls.t.now()
	out := o.inner.Apply(v, changed, removed)
	o.ls.recordSpan(span{Name: o.name, Start: start, End: o.ls.t.now()})
	return out
}
