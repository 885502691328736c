package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/histlog"
	"github.com/tmerge/tmerge/internal/ingest"
	"github.com/tmerge/tmerge/internal/query"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/serve/loadgen"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/trackdb"
	"github.com/tmerge/tmerge/internal/video"
	"github.com/tmerge/tmerge/internal/xrand"
)

// The history workload backfills a long camera stream into a session
// with the log-structured history on (L=40, compaction every 8 sealed
// segments, default segment size), all four incremental operators
// subscribed and automatic checkpoints off. Every histProbeEvery
// committed windows it asks for the answers at a seeded earlier cut:
// Ingestor.AsOf, then query.HistoricalAnswer per operator. Sessions
// rotate over histStreams streams and every session draws its own cuts,
// so a run averages over several scenes and many cuts. The small
// camera scene keeps the bandit light, so the log and the operators do
// most of the work.
const (
	histFrames       = 12000
	histStreams      = 4
	histWindowLen    = 40
	histCompactEvery = 8
	histProbeEvery   = 10
	histK            = 0.05
	minSessions      = 2
)

type histInput struct {
	seed    uint64
	streams []loadgen.Stream
	workdir string
	refs    []histRef
}

// histRef is a session without history over the same frames, which
// history must not change.
type histRef struct{ fingerprint, answers string }

func histSetup(seed uint64, workdir string) (*histInput, error) {
	streams, err := loadgen.Generate(loadgen.Config{Seed: seed, Streams: histStreams, Frames: histFrames})
	if err != nil {
		return nil, err
	}
	return &histInput{seed: seed, streams: streams, workdir: workdir}, nil
}

// references runs every stream once without history, on nproc workers.
func (h *histInput) references() error {
	h.refs = make([]histRef, len(h.streams))
	errs := make([]error, len(h.streams))
	forEach(len(h.streams), func(k int) {
		st := h.streams[k]
		ing, err := ingest.New(track.Tracktor(), cameraOracle(st.Seed, device.NewCPU(device.DefaultCPU)), h.ingestConfig(core.NewTMerge(core.DefaultTMergeConfig(st.Seed)), nil))
		if err != nil {
			errs[k] = err
			return
		}
		ops := streetQueries.incremental()
		for i, op := range ops {
			if _, err := ing.Subscribe(opKinds[i], op); err != nil {
				errs[k] = err
				return
			}
		}
		for f, dets := range st.Video.Detections {
			ing.PushAt(video.FrameIndex(f), dets)
		}
		ing.Close()
		h.refs[k] = histRef{ing.Result().Fingerprint(), digest(results(ops))}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (h *histInput) ingestConfig(algo core.Algorithm, hc *ingest.HistoryConfig) ingest.Config {
	return ingest.Config{WindowLen: histWindowLen, K: histK, Algorithm: algo, History: hc}
}

// sessionOut is one backfill session's measurements.
type sessionOut struct {
	stream      int
	wall, push  time.Duration
	frames      int
	windows     int
	probeMS     []float64
	probeFailed int
	finalOK     bool
	fingerprint string
	answers     string
	virtual     time.Duration
	stats       reid.Stats
	hot, cold   int
	hotCells    int
	tier        trackdb.TierStats
	logBytes    int64
	opStats     []query.OpStats
	asofCalls   int
	calls       callCounts
}

// session backfills stream n mod histStreams into a fresh history
// directory, probing the past as it goes, and checks the final answers
// three ways.
func (h *histInput) session(n int, ls *layerScope) (sessionOut, error) {
	out := sessionOut{stream: n % len(h.streams)}
	stream := h.streams[out.stream]
	dir := filepath.Join(h.workdir, fmt.Sprintf("history-seed%d-%d", h.seed, n))
	if err := os.RemoveAll(dir); err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)

	var algo core.Algorithm = core.NewTMerge(core.DefaultTMergeConfig(stream.Seed))
	var dev device.Device = device.NewCPU(device.DefaultCPU)
	if ls != nil {
		algo, dev = tracedPipeline(ls, algo, dev)
	}
	oracle := cameraOracle(stream.Seed, dev)
	ing, err := ingest.New(track.Tracktor(), oracle, h.ingestConfig(algo, &ingest.HistoryConfig{Dir: dir, CompactEvery: histCompactEvery}))
	if err != nil {
		return out, err
	}
	ops := streetQueries.incremental()
	for i := range ops {
		if ls != nil {
			ops[i] = newTracedOp(ls, ops[i], "apply")
		}
		if _, err := ing.Subscribe(opKinds[i], ops[i]); err != nil {
			return out, err
		}
	}

	rng := xrand.DeriveN(h.seed, "history-asof cuts", n)
	digests := make(map[video.FrameIndex]string) // answers as each window committed
	firstEnd, lastEnd := video.FrameIndex(-1), video.FrameIndex(-1)
	historical := func(cut video.FrameIndex, trace string) (video.FrameIndex, string, error) {
		var root int64
		var t0 time.Duration
		if ls != nil {
			root, t0 = ls.t.id(), ls.t.now()
		}
		view, at, err := ing.AsOf(cut)
		out.asofCalls++
		var t1 time.Duration
		if ls != nil {
			t1 = ls.t.now()
			ls.t.add(span{Parent: root, Trace: trace, Name: "histlog.asof", Start: t0, End: t1})
		}
		if err != nil {
			return 0, "", err
		}
		fresh := streetQueries.incremental()
		rows := make([][][]video.TrackID, len(fresh))
		hid := int64(0)
		if ls != nil {
			hid = ls.t.id()
			ls.set(trace, hid)
		}
		for i, op := range fresh {
			if ls != nil {
				op = newTracedOp(ls, op, "bootstrap")
			}
			rows[i] = query.HistoricalAnswer(view, op)
		}
		if ls != nil {
			t2 := ls.t.now()
			ls.t.add(span{ID: hid, Parent: root, Trace: trace, Name: "query.historical", Start: t1, End: t2})
			ls.t.add(span{ID: root, Trace: trace, Name: "bench.probe", Start: t0, End: t2})
		}
		return at, digest(rows), nil
	}

	start := time.Now()
	for f, dets := range stream.Video.Detections {
		var root int64
		var t0 time.Duration
		trace := fmt.Sprintf("s%d/f%d", n, f)
		if ls != nil {
			root, t0 = ls.t.id(), ls.t.now()
			ls.set(trace, root)
		}
		p0 := time.Now()
		closed := ing.PushAt(video.FrameIndex(f), dets)
		out.push += time.Since(p0)
		if ls != nil {
			ls.t.add(span{ID: root, Trace: trace, Name: "ingest.push", Start: t0, End: ls.t.now()})
		}
		if len(closed) == 0 {
			continue
		}
		out.windows += len(closed)
		lastEnd = closed[len(closed)-1].Window.End
		if firstEnd < 0 {
			firstEnd = closed[0].Window.End
		}
		digests[lastEnd] = digest(results(ops))
		if out.windows%histProbeEvery != 0 {
			continue
		}
		lo, err := retainedFrom(dir, firstEnd)
		if err != nil {
			return out, err
		}
		cut := lo + video.FrameIndex(rng.Intn(int(lastEnd-lo)+1))
		p1 := time.Now()
		at, got, err := historical(cut, fmt.Sprintf("s%d/probe%d", n, len(out.probeMS)))
		out.probeMS = append(out.probeMS, ms(time.Since(p1)))
		if err != nil || got != digests[at] {
			out.probeFailed++
			fmt.Fprintf(os.Stderr, "perfbench: probe at frame %d (cut %d): %v, answers %s, want %s\n", cut, at, err, got, digests[at])
		}
	}
	ing.Close()
	out.wall = time.Since(start)
	out.frames = ing.FramesSeen()

	live := digest(results(ops))
	_, hist, err := historical(video.FrameIndex(out.frames-1), fmt.Sprintf("s%d/final", n))
	batch := digest(streetQueries.batch(ing.MergedTracks()))
	out.finalOK = err == nil && ing.HistoryErr() == nil && live == hist && live == batch
	if !out.finalOK {
		fmt.Fprintf(os.Stderr, "perfbench: final answers: live %s, historical %s (%v), batch %s, history %v\n", live, hist, err, batch, ing.HistoryErr())
	}
	res := ing.Result()
	out.fingerprint, out.answers = res.Fingerprint(), live
	out.virtual, out.stats = res.Virtual, res.Stats
	out.hot, out.cold, out.hotCells, out.tier = ing.HistoryStats()
	for _, op := range ops {
		out.opStats = append(out.opStats, op.Stats())
	}
	if ls != nil {
		out.calls = ls.c.snapshot()
	}
	out.logBytes, err = dirSize(dir)
	return out, err
}

// retainedFrom returns the earliest frame a time-travel cut may name:
// the first committed window's end, or the compacted base's end frame
// once the log has been compacted past it.
func retainedFrom(dir string, firstEnd video.FrameIndex) (video.FrameIndex, error) {
	l, err := histlog.Open(dir, histlog.Options{})
	if err != nil {
		return 0, err
	}
	return max(firstEnd, l.RetentionFrame()), nil
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func runHistory(cfg runConfig) (*report, error) {
	rep := newReport()
	in, err := timeSetup(rep, func() (*histInput, error) { return histSetup(cfg.seed, cfg.workdir) })
	if err != nil {
		return nil, err
	}
	if err := in.references(); err != nil {
		return nil, err
	}
	n := 0
	run := func(ls *layerScope) (sessionOut, error) {
		n++
		s, err := in.session(n, ls)
		if err != nil {
			return s, err
		}
		rep.attempted += len(s.probeMS) + 1
		if s.probeFailed > 0 {
			rep.fail(s.probeFailed, true, fmt.Sprintf("%d time-travel answers differ from the answers live at their cut", s.probeFailed))
		}
		switch {
		case !s.finalOK:
			rep.fail(1, true, "final incremental, historical and batch answers disagree")
		case s.fingerprint != in.refs[s.stream].fingerprint || s.answers != in.refs[s.stream].answers:
			rep.fail(1, true, "the session with history differs from the session without")
		}
		return s, nil
	}
	if _, err := run(nil); err != nil { // warm-up
		return nil, err
	}
	if cfg.trace {
		return rep, historyTraced(cfg, rep, run)
	}
	hs := startHeapSampler()
	defer hs.close()
	var sessions []sessionOut
	var probes, peaks []float64
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i < minSessions || time.Now().Before(deadline); i++ {
		hs.take()
		s, err := run(nil)
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, hs.take())
		probes = append(probes, s.probeMS...)
		sessions = append(sessions, s)
	}
	// Throughput and modelled FPS cover whole rotations over the
	// streams, so every scene weighs the same.
	if n := len(sessions) / histStreams * histStreams; n > 0 {
		sessions = sessions[:n]
	}
	var frames int
	var push, virtual time.Duration
	for _, s := range sessions {
		frames += s.frames
		push += s.push
		virtual += s.virtual
	}
	rep.set("throughput_fps", float64(frames)/push.Seconds(), "frames/s")
	setTail(rep, "latency_", probes)
	rep.set("virtual_fps", float64(frames)/virtual.Seconds(), "frames/s")
	rep.set("peak_heap_mb", median(peaks), "MB")
	rep.notes["sessions"] = len(peaks)
	return rep, nil
}

// historyTraced spends half the run on untraced sessions and half on
// traced ones, and reports the per-layer metrics per session.
func historyTraced(cfg runConfig, rep *report, run func(*layerScope) (sessionOut, error)) error {
	half := cfg.seconds / 2
	var untraced []float64
	alloc0, gc0 := goCounters()
	frames, sessions := 0, 0
	for deadline := time.Now().Add(half); sessions < minSessions || time.Now().Before(deadline); sessions++ {
		s, err := run(nil)
		if err != nil {
			return err
		}
		untraced = append(untraced, ms(s.wall))
		frames += s.frames
	}
	alloc1, gc1 := goCounters()
	rep.set("go.alloc_bytes_per_frame", float64(alloc1-alloc0)/float64(frames), "bytes")
	rep.set("go.gc_cycles", float64(gc1-gc0)/float64(sessions), "count")

	tr := newTracer()
	var traced []float64
	var last sessionOut
	var windows, asof int
	var logBytes int64
	var st reid.Stats
	var virtual time.Duration
	var cnt counters
	scanned := make([]int, len(opKinds))
	var asserts, retracts int
	n := 0
	for deadline := time.Now().Add(half); n < minSessions || time.Now().Before(deadline); n++ {
		s, err := run(&layerScope{scope: &scope{t: tr}, c: &counters{}})
		if err != nil {
			return err
		}
		traced = append(traced, ms(s.wall))
		windows += s.windows
		asof += s.asofCalls
		logBytes += s.logBytes
		st.Distances += s.stats.Distances
		st.Extractions += s.stats.Extractions
		st.CacheHits += s.stats.CacheHits
		virtual += s.virtual
		cnt.add(s.calls)
		for i, os := range s.opStats {
			scanned[i] += os.Scanned
			asserts += os.Asserted
			retracts += os.Retracted
		}
		last = s
	}
	units := float64(n)
	rep.set("ingest.windows", float64(windows)/units, "count")
	rep.set("histlog.asof_calls", float64(asof)/units, "count")
	rep.set("histlog.log_bytes", float64(logBytes)/units, "bytes")
	rep.set("trackdb.hot_tracks", float64(last.hot), "count")
	rep.set("trackdb.cold_tracks", float64(last.cold), "count")
	rep.set("trackdb.hot_cells", float64(last.hotCells), "count")
	rep.set("trackdb.evicted", float64(last.tier.Evicted), "count")
	rep.set("trackdb.rehydrated", float64(last.tier.Rehydrated), "count")
	for i, k := range opKinds {
		rep.set("query."+k+".scanned", float64(scanned[i])/units, "count")
	}
	rep.set("query.asserts", float64(asserts)/units, "count")
	rep.set("query.retracts", float64(retracts)/units, "count")
	rep.set("device.virtual_ms", ms(virtual)/units, "ms")
	setOracleMetrics(rep, st, units)
	setCounterMetrics(rep, &cnt, units)
	rep.notes["traced_sessions"] = n
	spans := tr.snapshot()
	setSpanMetrics(rep, spans, n)
	setOverhead(rep, median(untraced), median(traced))
	return writeNDJSON(spanFile(cfg, "history-asof"), spans)
}
