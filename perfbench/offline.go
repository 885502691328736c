package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/dataset"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/synth"
	"github.com/tmerge/tmerge/internal/track"
)

// The offline corpus is the paper's long-window profile: PathTrack-like
// videos in half-overlapping windows of L=400 with TMerge at TauMax 4000,
// as in the pinned parallel bench. Eight videos per pass keep the
// per-seed variation of the work small.
const (
	offlineVideos    = 8
	offlineWindowLen = 400
	offlineTauMax    = 4000
	offlineK         = 0.05
	minPasses        = 3
)

// videoRef is what a correct pass reproduces for one video.
type videoRef struct {
	Fingerprint string  `json:"fingerprint"`
	REC         float64 `json:"rec"`
	Queries     string  `json:"queries"`
}

// referenceJSON maps seeds to the per-video references recorded with
// the sequential executor (regenerate with -write-reference).
//
//go:embed reference.json
var referenceJSON []byte

type offlineInput struct {
	seed   uint64
	videos []*synth.Video
	model  *reid.Model
}

func offlineScene(seed uint64) (*offlineInput, error) {
	p := dataset.PathTrackLike(seed)
	p.NumVideos = offlineVideos
	ds, err := p.Generate()
	if err != nil {
		return nil, err
	}
	return &offlineInput{seed: seed, videos: ds.Videos, model: reid.NewModel(seed^0x5EED, dataset.AppearanceDim)}, nil
}

// videoOut is one video's output from a pass.
type videoOut struct {
	ref     videoRef
	frames  int
	virtual time.Duration
	stats   reid.Stats
	latency time.Duration // frames in to merged answer out
}

// runVideo tracks, merges and queries one video. With ls non-nil every
// layer call is recorded as a span under parent.
func (in *offlineInput) runVideo(i, workers int, ls *layerScope, parent int64, trace string) videoOut {
	v := in.videos[i]
	start := time.Now()
	var t0 time.Duration
	if ls != nil {
		t0 = ls.t.now()
	}
	tracks := track.Tracktor().Track(v.Detections)

	tc := core.DefaultTMergeConfig(in.seed)
	tc.TauMax = offlineTauMax
	var (
		algo core.Algorithm = core.NewTMerge(tc)
		dev                 = device.NewCPU(device.DefaultCPU)
		pid  int64
		t1   time.Duration
	)
	if ls != nil {
		t1 = ls.t.now()
		ls.t.add(span{Parent: parent, Trace: trace, Name: "track.track", Start: t0, End: t1})
		pid = ls.t.id()
		ls.set(trace, pid)
		algo, dev = tracedPipeline(ls, algo, dev)
	}
	res := core.RunPipeline(tracks, v.NumFrames, reid.NewOracle(in.model, dev), core.PipelineConfig{
		WindowLen: offlineWindowLen,
		K:         offlineK,
		Algorithm: algo,
		Workers:   workers,
	})
	var t2 time.Duration
	if ls != nil {
		t2 = ls.t.now()
		ls.t.add(span{ID: pid, Parent: parent, Trace: trace, Name: "core.pipeline", Start: t1, End: t2})
	}
	answers := pathQueries.batch(res.Merged)
	if ls != nil {
		ls.t.add(span{Parent: parent, Trace: trace, Name: "query.answer", Start: t2, End: ls.t.now()})
	}
	return videoOut{
		ref:     videoRef{Fingerprint: res.Fingerprint(), REC: res.REC, Queries: digest(answers)},
		frames:  res.FramesProcessed,
		virtual: res.Virtual,
		stats:   res.Stats,
		latency: time.Since(start),
	}
}

type passOut struct {
	wall   time.Duration
	videos []videoOut
}

func (p passOut) frames() (n int) {
	for _, v := range p.videos {
		n += v.frames
	}
	return n
}

// pass runs every video once.
func (in *offlineInput) pass(workers int, ls *layerScope, n int) passOut {
	var out passOut
	var root int64
	var r0 time.Duration
	if ls != nil {
		root, r0 = ls.t.id(), ls.t.now()
	}
	start := time.Now()
	for i := range in.videos {
		out.videos = append(out.videos, in.runVideo(i, workers, ls, root, fmt.Sprintf("pass%d/video%d", n, i)))
	}
	out.wall = time.Since(start)
	if ls != nil {
		ls.t.add(span{ID: root, Trace: fmt.Sprintf("pass%d", n), Name: "bench.pass", Start: r0, End: ls.t.now()})
	}
	return out
}

// offlineReference returns the seed's recorded references, or computes
// them with the sequential executor when the table lacks the seed.
func offlineReference(in *offlineInput) ([]videoRef, string, error) {
	var table map[string][]videoRef
	if err := json.Unmarshal(referenceJSON, &table); err != nil {
		return nil, "", fmt.Errorf("reading reference.json: %w", err)
	}
	if refs, ok := table[strconv.FormatUint(in.seed, 10)]; ok && len(refs) == len(in.videos) {
		return refs, "recorded", nil
	}
	refs := make([]videoRef, len(in.videos))
	for i := range in.videos {
		refs[i] = in.runVideo(i, 1, nil, 0, "").ref
	}
	return refs, "computed with Workers=1", nil
}

// writeReference records the sequential-executor references of seeds
// FROM..TO (inclusive) into path.
func writeReference(path, span string) error {
	var from, to uint64
	if _, err := fmt.Sscanf(span, "%d:%d", &from, &to); err != nil || to < from {
		return fmt.Errorf("-write-reference needs a seed range FROM:TO, got %q", span)
	}
	table := make(map[string][]videoRef)
	for seed := from; seed <= to; seed++ {
		in, err := offlineScene(seed)
		if err != nil {
			return err
		}
		for i := range in.videos {
			table[strconv.FormatUint(seed, 10)] = append(table[strconv.FormatUint(seed, 10)], in.runVideo(i, 1, nil, 0, "").ref)
		}
		fmt.Fprintf(os.Stderr, "seed %d recorded\n", seed)
	}
	data, err := json.MarshalIndent(table, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runOffline(cfg runConfig) (*report, error) {
	rep := newReport()
	in, err := timeSetup(rep, func() (*offlineInput, error) { return offlineScene(cfg.seed) })
	if err != nil {
		return nil, err
	}
	refs, source, err := offlineReference(in)
	if err != nil {
		return nil, err
	}
	rep.notes["reference"] = source
	workers := runtime.NumCPU()
	check := func(p passOut) {
		for i, v := range p.videos {
			rep.attempted++
			if v.ref != refs[i] {
				rep.fail(1, true, fmt.Sprintf("video %d: got %+v, reference %+v", i, v.ref, refs[i]))
			}
		}
	}
	check(in.pass(workers, nil, 0)) // warm-up

	if cfg.trace {
		return rep, offlineTraced(cfg, rep, in, workers, check)
	}
	hs := startHeapSampler()
	defer hs.close()
	var fps, lat, peaks []float64
	var first passOut
	deadline := time.Now().Add(cfg.seconds)
	for n := 1; n <= minPasses || time.Now().Before(deadline); n++ {
		hs.take()
		p := in.pass(workers, nil, n)
		peaks = append(peaks, hs.take())
		check(p)
		fps = append(fps, float64(p.frames())/p.wall.Seconds())
		for _, v := range p.videos {
			lat = append(lat, ms(v.latency))
		}
		if n == 1 {
			first = p
		}
	}
	var virtual time.Duration
	var rec float64
	for _, v := range first.videos {
		virtual += v.virtual
		rec += v.ref.REC
	}
	rep.set("throughput_fps", median(fps), "frames/s")
	setTail(rep, "latency_", lat)
	rep.set("virtual_fps", float64(first.frames())/virtual.Seconds(), "frames/s")
	rep.set("peak_heap_mb", median(peaks), "MB")
	rep.notes["passes"] = len(fps)
	rep.notes["frames_per_pass"] = first.frames()
	rep.notes["rec"] = rec / float64(len(first.videos))
	return rep, nil
}

// offlineTraced spends half the run on untraced passes and half on
// traced ones, checks both against the reference, and reports the
// per-layer metrics per pass.
func offlineTraced(cfg runConfig, rep *report, in *offlineInput, workers int, check func(passOut)) error {
	half := cfg.seconds / 2
	var untraced []float64
	alloc0, gc0 := goCounters()
	frames := 0
	deadline := time.Now().Add(half)
	for n := 1; n <= minPasses || time.Now().Before(deadline); n++ {
		p := in.pass(workers, nil, n)
		check(p)
		untraced = append(untraced, ms(p.wall))
		frames += p.frames()
	}
	alloc1, gc1 := goCounters()
	rep.set("go.alloc_bytes_per_frame", float64(alloc1-alloc0)/float64(frames), "bytes")
	rep.set("go.gc_cycles", float64(gc1-gc0)/float64(len(untraced)), "count")

	tr := newTracer()
	ls := &layerScope{scope: &scope{t: tr}, c: &counters{}}
	var traced []float64
	var sum passOut
	deadline = time.Now().Add(half)
	for n := 1; n <= minPasses || time.Now().Before(deadline); n++ {
		p := in.pass(workers, ls, n)
		check(p)
		traced = append(traced, ms(p.wall))
		sum.videos = append(sum.videos, p.videos...)
	}
	passes := float64(len(traced))
	var st reid.Stats
	var virtual time.Duration
	for _, v := range sum.videos {
		st.Distances += v.stats.Distances
		st.Extractions += v.stats.Extractions
		st.CacheHits += v.stats.CacheHits
		virtual += v.virtual
	}
	rep.set("track.frames", float64(sum.frames())/passes, "count")
	setOracleMetrics(rep, st, passes)
	rep.set("device.virtual_ms", ms(virtual)/passes, "ms")
	setCounterMetrics(rep, ls.c, passes)
	spans := tr.snapshot()
	setSpanMetrics(rep, spans, len(traced))
	setOverhead(rep, median(untraced), median(traced))
	return writeNDJSON(spanFile(cfg, "offline-corpus"), spans)
}
