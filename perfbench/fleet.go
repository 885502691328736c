package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tmerge/tmerge/internal/core"
	"github.com/tmerge/tmerge/internal/dataset"
	"github.com/tmerge/tmerge/internal/device"
	"github.com/tmerge/tmerge/internal/ingest"
	"github.com/tmerge/tmerge/internal/ingress"
	"github.com/tmerge/tmerge/internal/reid"
	"github.com/tmerge/tmerge/internal/serve"
	"github.com/tmerge/tmerge/internal/serve/loadgen"
	"github.com/tmerge/tmerge/internal/track"
	"github.com/tmerge/tmerge/internal/video"
)

// The fleet is tmerged's deployed path: loadgen cameras pushed over
// loopback HTTP through ingress.Client into ingress.Server, with
// tmerged's defaults (L=80, queue cap 64, turn 16, client batches of 4)
// except that every third window seals a checkpoint: at tmerged's one in
// two, half the windows pay for a seal and the median window latency sat
// on the edge between the two groups, flipping between them run to run. Every step of the rate ladder starts a
// fresh fleet and pushes the same frames, so state size, and with it
// checkpoint size, is the same at every rate.
const (
	fleetStreams = 16
	// fleetFleets distinct fleets take turns at the nominal rate, so the
	// latency of a run rests on twice as many scenes; the ladder uses
	// the first.
	fleetFleets      = 2
	fleetFrames      = 320
	fleetWarmFrames  = 80
	fleetWindowLen   = 80
	fleetCkptEvery   = 3
	fleetBatchFrames = 4
	fleetK           = 0.05
	// fleetLimitMS is the latency limit a ladder step's tail must meet.
	fleetLimitMS = 500.0
	// fleetNominalFPS is the aggregate rate latency is reported at,
	// about a seventh of what this commit sustains on 2 CPUs: at a
	// quarter or a half, heavy turns overlapping each other and the
	// daemon's other work made the tail of repeated runs of one seed
	// differ by half.
	fleetNominalFPS = 350.0
	// fleetNominalShare is the part of the run spent at the nominal
	// rate, at least one step per fleet; the ladder search runs after it.
	fleetNominalShare = 0.5
	// The ladder's rungs are fleetRungFPS apart, up to fleetRungs rungs.
	fleetRungFPS = 100.0
	fleetRungs   = 40
)

// schedule times an open loop: each stream runs at rate/streams frames
// per second, and stream i lags stream 0 by i/streams of a stagger of
// frames, so cameras close their windows at different moments. Frame f
// of stream i is due (f·streams + i·stagger) / rate seconds after the
// start.
type schedule struct {
	streams int
	rate    float64 // aggregate frames per second
	stagger int     // frames
}

func (s schedule) offset(stream, frame int) time.Duration {
	k := frame*s.streams + stream*s.stagger
	return time.Duration(float64(k) / s.rate * float64(time.Second))
}

// latency is the time from when stream's frame was due to when its
// result was observed — what a user waits, generator stalls included.
func (s schedule) latency(start, observed time.Time, stream, frame int) time.Duration {
	return observed.Sub(start.Add(s.offset(stream, frame)))
}

// order returns every (stream, frame) of the first frames of each
// stream, by due time.
func (s schedule) order(frames int) [][2]int {
	out := make([][2]int, 0, frames*s.streams)
	for f := 0; f < frames; f++ {
		for i := 0; i < s.streams; i++ {
			out = append(out, [2]int{i, f})
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		return s.offset(out[a][0], out[a][1]) < s.offset(out[b][0], out[b][1])
	})
	return out
}

type fleetInput struct {
	streams []loadgen.Stream
	index   map[string]int
	refs    []string // sequential single-stream fingerprints
}

func fleetIngestConfig(algo core.Algorithm, sink func([]byte) error) ingest.Config {
	return ingest.Config{
		WindowLen:           fleetWindowLen,
		K:                   fleetK,
		Algorithm:           algo,
		AutoCheckpointEvery: fleetCkptEvery,
		CheckpointSink:      sink,
	}
}

// cameraOracle builds a loadgen camera's oracle as tmerged does.
func cameraOracle(seed uint64, dev device.Device) *reid.Oracle {
	return reid.NewOracle(reid.NewModel(seed^0x5EED, dataset.AppearanceDim), dev)
}

// fleetSetup generates the fleets, runs every stream alone through an
// ingest.Ingestor for its reference fingerprint, and starts and stops
// one server.
func fleetSetup(seed uint64) ([]*fleetInput, error) {
	streams, err := loadgen.Generate(loadgen.Config{Seed: seed, Streams: fleetStreams * fleetFleets, Frames: fleetFrames})
	if err != nil {
		return nil, err
	}
	refs := make([]string, len(streams))
	errs := make([]error, len(streams))
	forEach(len(streams), func(i int) {
		s := streams[i]
		ing, err := ingest.New(track.Tracktor(), cameraOracle(s.Seed, device.NewCPU(device.DefaultCPU)),
			fleetIngestConfig(core.NewTMerge(core.DefaultTMergeConfig(s.Seed)), func([]byte) error { return nil }))
		if err != nil {
			errs[i] = err
			return
		}
		for f, dets := range s.Video.Detections {
			ing.PushAt(video.FrameIndex(f), dets)
		}
		ing.Close()
		refs[i] = ing.Result().Fingerprint()
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var fleets []*fleetInput
	for lo := 0; lo < len(streams); lo += fleetStreams {
		in := &fleetInput{streams: streams[lo : lo+fleetStreams], index: make(map[string]int), refs: refs[lo : lo+fleetStreams]}
		for i, s := range in.streams {
			in.index[s.ID] = i
		}
		fleets = append(fleets, in)
	}
	fs, err := startFleetServer(serve.Config{}, func(string, ingress.RegisterRequest) (serve.StreamSpec, error) {
		return serve.StreamSpec{}, fmt.Errorf("no streams")
	})
	if err != nil {
		return nil, err
	}
	fs.stop()
	return fleets, nil
}

// forEach runs fn(0..n-1) on nproc goroutines and waits for them.
func forEach(n int, fn func(i int)) {
	next := make(chan int, n) // holds every index, so filling it never blocks
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// fleetServer is one step's daemon: ingress over a serve.Manager on a
// loopback listener, and the one shared HTTP client every stream pushes
// through, capped at nproc connections.
type fleetServer struct {
	srv       *ingress.Server
	hs        *http.Server
	served    chan struct{}
	transport *http.Transport
	hc        *http.Client
	base      string
}

func startFleetServer(sc serve.Config, spec ingress.SpecFunc) (*fleetServer, error) {
	srv, err := ingress.NewServer(ingress.ServerConfig{Serve: sc, Spec: spec})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	fs := &fleetServer{
		srv:       srv,
		hs:        &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served:    make(chan struct{}),
		transport: &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()},
		base:      "http://" + ln.Addr().String(),
	}
	fs.hc = &http.Client{Transport: fs.transport, Timeout: 2 * time.Minute}
	go func() {
		_ = fs.hs.Serve(ln) // returns once stop closes the server
		close(fs.served)
	}()
	return fs, nil
}

func (fs *fleetServer) stop() {
	fs.srv.Shutdown()
	_ = fs.hs.Close()
	<-fs.served
	fs.transport.CloseIdleConnections()
}

// stepResult is one ladder step's measurements.
type stepResult struct {
	rate         float64
	wall         time.Duration // first frame due to last stream finished
	e2e, turn    []float64     // ms, per full window
	lag          []float64     // ms, generator lateness per frame
	pushMS       []float64     // ms, traced push calls that went on the wire
	backlogMax   int           // server queue, polled
	growing      bool
	streamsRun   int
	streamsLost  int // a push or finish failed
	streamsWrong int // fingerprint differs from the reference
	windows      int
	frames       int
	virtual      time.Duration
	stats        reid.Stats
	client       ingress.ClientStats
	ckptCount    int
	ckptBytes    int
	ckptMax      int
	calls        callCounts // traced steps only
}

// tail returns the step's latency at the reported tail percentile.
func (r *stepResult) tail() float64 { return tailOf(r.e2e, 99).Value }

// passed reports whether the step met the latency limit with no growing
// backlog and no refused or failed push.
func (r *stepResult) passed() bool {
	return len(r.e2e) > 0 && r.tail() <= fleetLimitMS && !r.growing && r.streamsLost == 0
}

// stepRun is the state a step shares with the server's callbacks.
type stepRun struct {
	in    *fleetInput
	sched schedule
	start atomic.Int64 // unix nanoseconds; set before the first frame is due

	tr     *tracer // nil when untraced
	scopes []*layerScope
	c      *counters

	mu      sync.Mutex
	res     stepResult
	oracles []*reid.Oracle
}

// onWindow times a full window from its closing frame's due time to the
// moment a worker reports it.
func (r *stepRun) onWindow(stream string, res ingest.WindowResult, turn time.Duration) {
	now := time.Now()
	w := res.Window
	if int(w.End-w.Start)+1 != w.Nominal {
		return // the clipped last window, closed by Finish
	}
	i := r.in.index[stream]
	e2e := r.sched.latency(time.Unix(0, r.start.Load()), now, i, int(w.End))
	r.mu.Lock()
	r.res.e2e = append(r.res.e2e, ms(e2e))
	r.res.turn = append(r.res.turn, ms(turn))
	r.mu.Unlock()
	if r.tr == nil {
		return
	}
	// The window's span runs from its due time; the push that closed it
	// is the last turn of it, and the spans the stream's layers recorded
	// during that push become its children.
	trace := fmt.Sprintf("%s/w%d", stream, w.Index)
	end := now.Sub(r.tr.epoch)
	pushStart := end - turn
	winID, pushID := r.tr.id(), r.tr.id()
	held := r.scopes[i].adopt(trace, pushID)
	// A checkpoint is sealed after the window's work and before the sink
	// sees it: the gap between the last layer span and the sink call is
	// the seal, through the manager's and the server's sink chain.
	for _, s := range held {
		if s.Name != "checkpoint.sink" {
			continue
		}
		from := pushStart
		for _, o := range held {
			if o.Name != "checkpoint.sink" && o.End <= s.Start && o.End > from {
				from = o.End
			}
		}
		r.tr.add(span{Parent: pushID, Trace: trace, Name: "checkpoint.seal", Start: from, End: s.Start})
	}
	r.tr.add(span{ID: pushID, Parent: winID, Trace: trace, Name: "ingest.push", Start: pushStart, End: end})
	r.tr.add(span{ID: winID, Trace: trace, Name: "serve.window", Start: end - e2e, End: end})
}

func (r *stepRun) sink(i int) func([]byte) error {
	return func(data []byte) error {
		r.mu.Lock()
		r.res.ckptCount++
		r.res.ckptBytes += len(data)
		r.res.ckptMax = max(r.res.ckptMax, len(data))
		r.mu.Unlock()
		if r.tr != nil {
			t := r.tr.now()
			r.scopes[i].recordSpan(span{Name: "checkpoint.sink", Start: t, End: t})
		}
		return nil
	}
}

// spec builds a registered stream's pipeline exactly as tmerged does,
// with the layer wrappers when tracing.
func (r *stepRun) spec(id string, _ ingress.RegisterRequest) (serve.StreamSpec, error) {
	i, ok := r.in.index[id]
	if !ok {
		return serve.StreamSpec{}, fmt.Errorf("unknown stream %q", id)
	}
	seed := r.in.streams[i].Seed
	var algo core.Algorithm = core.NewTMerge(core.DefaultTMergeConfig(seed))
	var ta *tracedAlgo
	if r.tr != nil {
		ta = &tracedAlgo{inner: algo, ls: r.scopes[i]}
		algo = ta
	}
	return serve.StreamSpec{
		Ingest: fleetIngestConfig(algo, r.sink(i)),
		Pipeline: func() (*track.Engine, *reid.Oracle) {
			var dev device.Device = device.NewCPU(device.DefaultCPU)
			if ta != nil {
				td := &tracedDevice{inner: dev, ls: r.scopes[i]}
				ta.dev, dev = td, td
			}
			o := cameraOracle(seed, dev)
			r.mu.Lock()
			r.oracles[i] = o
			r.mu.Unlock()
			return track.Tracktor(), o
		},
	}, nil
}

type pushFrame struct {
	f    video.FrameIndex
	dets []video.BBox
}

// runStep pushes the first frames of every stream at an aggregate rate
// as an open loop, finishes every stream, and checks its fingerprint
// when the whole stream was pushed.
func (in *fleetInput) runStep(ctx context.Context, rate float64, frames int, tr *tracer) (stepResult, error) {
	r := &stepRun{
		in:      in,
		sched:   schedule{streams: len(in.streams), rate: rate, stagger: fleetWindowLen / 2},
		tr:      tr,
		oracles: make([]*reid.Oracle, len(in.streams)),
		res:     stepResult{rate: rate, streamsRun: len(in.streams)},
	}
	if tr != nil {
		r.c = &counters{}
		for range in.streams {
			r.scopes = append(r.scopes, &layerScope{scope: &scope{t: tr, hold: true}, c: r.c})
		}
	}
	fs, err := startFleetServer(serve.Config{Workers: runtime.NumCPU(), Now: time.Now, OnWindow: r.onWindow}, r.spec)
	if err != nil {
		return stepResult{}, err
	}
	defer fs.stop()
	clients := make([]*ingress.Client, len(in.streams))
	for i, s := range in.streams {
		cl, err := ingress.NewClient(ingress.ClientConfig{
			BaseURL: fs.base, Stream: s.ID, Seed: s.Seed, HTTPClient: fs.hc, BatchFrames: fleetBatchFrames,
		})
		if err != nil {
			return stepResult{}, err
		}
		if _, err := cl.Register(ctx, ingress.RegisterRequest{Seed: s.Seed}); err != nil {
			return stepResult{}, err
		}
		clients[i] = cl
	}

	// Every channel holds a whole stream, so the generator never waits
	// for a pusher: a slow daemon delays frames, it does not slow the
	// arrivals.
	chans := make([]chan pushFrame, len(in.streams))
	for i := range chans {
		chans[i] = make(chan pushFrame, frames)
	}
	var generated atomic.Int64
	genDone := make(chan struct{})
	start := time.Now()
	r.start.Store(start.UnixNano())
	go func() {
		defer close(genDone)
		for _, ev := range r.sched.order(frames) {
			i, f := ev[0], ev[1]
			due := r.sched.offset(i, f)
			if wait := due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			r.res.lag = append(r.res.lag, ms(time.Since(start)-due))
			chans[i] <- pushFrame{video.FrameIndex(f), in.streams[i].Video.Detections[f]}
			generated.Add(1)
		}
		for _, ch := range chans {
			close(ch)
		}
	}()

	// Poll the backlog: frames due but not yet processed, and the
	// server's own queue.
	var samples []backlogSample
	var genEnd time.Duration
	pollDone := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-pollDone:
				return
			case <-tick.C:
			}
			gen := generated.Load()
			processed, queued := 0, 0
			for _, st := range fs.srv.Status().Streams {
				processed += st.Frames
				queued += st.Queued
			}
			r.mu.Lock()
			r.res.backlogMax = max(r.res.backlogMax, queued)
			r.mu.Unlock()
			if int(gen) < frames*len(in.streams) {
				samples = append(samples, backlogSample{time.Since(start), gen - int64(processed)})
			}
		}
	}()

	var wg sync.WaitGroup
	lost := make([]bool, len(in.streams))
	for i := range in.streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for fr := range chans[i] {
				if lost[i] {
					continue
				}
				var before int64
				var t0 time.Duration
				if tr != nil {
					before, t0 = clients[i].Stats().Requests, tr.now()
				}
				if err := clients[i].Push(ctx, fr.f, fr.dets); err != nil {
					lost[i] = true
					continue
				}
				if tr != nil && clients[i].Stats().Requests != before {
					d := tr.now() - t0
					tr.add(span{Trace: in.streams[i].ID, Name: "ingress.push", Start: t0, End: t0 + d})
					r.mu.Lock()
					r.res.pushMS = append(r.res.pushMS, ms(d))
					r.mu.Unlock()
				}
			}
		}(i)
	}
	<-genDone
	genEnd = time.Since(start)
	wg.Wait()

	fins := make([]ingress.FinishResponse, len(in.streams))
	for i := range in.streams {
		if lost[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fin, err := clients[i].Finish(ctx)
			if err != nil {
				lost[i] = true
				return
			}
			fins[i] = fin
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	close(pollDone)
	pollWG.Wait()

	r.mu.Lock()
	res := r.res
	r.mu.Unlock()
	res.wall = wall
	res.growing = backlogGrows(samples, genEnd, rate)
	if r.c != nil {
		res.calls = r.c.snapshot()
	}
	for i := range in.streams {
		st := clients[i].Stats()
		res.client.Requests += st.Requests
		res.client.Retries += st.Retries
		res.client.Throttled += st.Throttled
		switch {
		case lost[i]:
			res.streamsLost++
		case frames == fleetFrames && fins[i].Fingerprint != in.refs[i]:
			res.streamsWrong++
		}
		res.windows += fins[i].Windows
		res.frames += fins[i].Frames
		if o := r.oracles[i]; o != nil {
			st := o.Stats()
			res.stats.Distances += st.Distances
			res.stats.Extractions += st.Extractions
			res.stats.CacheHits += st.CacheHits
			res.virtual += o.Device().Clock().Elapsed()
		}
	}
	return res, nil
}

type backlogSample struct {
	at      time.Duration
	backlog int64 // frames due but not yet processed
}

// backlogGrows reports whether the due-but-unprocessed backlog kept
// growing while frames were arriving at rate: over the last three
// quarters of the arrivals, its least-squares slope exceeds a tenth of
// the arrival rate, so processing fell more than 10% short of it.
func backlogGrows(samples []backlogSample, genEnd time.Duration, rate float64) bool {
	var xs, ys []float64
	for _, s := range samples {
		if s.at >= genEnd/4 && s.at <= genEnd {
			xs = append(xs, s.at.Seconds())
			ys = append(ys, float64(s.backlog))
		}
	}
	if len(xs) < 2 {
		return false
	}
	mx, my := mean(xs), mean(ys)
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	return sxx > 0 && sxy/sxx > rate/10
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func runFleet(cfg runConfig) (*report, error) {
	rep := newReport()
	fleets, err := timeSetup(rep, func() ([]*fleetInput, error) { return fleetSetup(cfg.seed) })
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if _, err := fleets[0].runStep(ctx, fleetNominalFPS, fleetWarmFrames, nil); err != nil {
		return nil, err
	}
	stepOn := func(in *fleetInput, rate float64, tr *tracer) (stepResult, error) {
		s, err := in.runStep(ctx, rate, fleetFrames, tr)
		if err != nil {
			return s, err
		}
		rep.attempted += s.streamsRun
		if s.streamsLost > 0 {
			rep.fail(s.streamsLost, false, fmt.Sprintf("%d streams failed to push or finish at %.0f frames/s", s.streamsLost, rate))
		}
		if s.streamsWrong > 0 {
			rep.fail(s.streamsWrong, true, fmt.Sprintf("%d streams finished with a fingerprint other than their sequential run", s.streamsWrong))
		}
		return s, nil
	}
	step := func(rate float64, tr *tracer) (stepResult, error) { return stepOn(fleets[0], rate, tr) }
	if cfg.trace {
		return rep, fleetTraced(cfg, rep, step)
	}

	hs := startHeapSampler()
	defer hs.close()
	var nominal []stepResult
	var e2e, peaks []float64
	deadline := time.Now().Add(time.Duration(float64(cfg.seconds) * fleetNominalShare))
	nominalPassed := true
	for k := 0; k < len(fleets) || time.Now().Before(deadline); k++ {
		hs.take()
		s, err := stepOn(fleets[k%len(fleets)], fleetNominalFPS, nil)
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, hs.take())
		nominal = append(nominal, s)
		e2e = append(e2e, s.e2e...)
		nominalPassed = nominalPassed && s.passed()
	}
	setTail(rep, "latency_", e2e)
	rep.set("peak_heap_mb", median(peaks), "MB")
	var frames int
	var virtual time.Duration
	for _, s := range nominal[:len(fleets)] {
		frames += s.frames
		virtual += s.virtual
	}
	rep.set("virtual_fps", float64(frames)/virtual.Seconds(), "frames/s")

	// The maximum rate is the highest rung that meets the limit. The
	// search starts from the daemon's capacity, measured as the rate it
	// completes a step offered at the top rung, and steps down until a
	// rung passes; a rung fails only if it misses the limit twice in a
	// row, so one disturbed step does not cut the search short.
	type probe struct {
		Rate   float64 `json:"rate"`
		TailMS float64 `json:"tail_ms"`
		Grows  bool    `json:"backlog_grows"`
		Lost   int     `json:"streams_lost"`
		Passed bool    `json:"passed"`
	}
	var probes []probe
	sat, err := step(fleetRungs*fleetRungFPS, nil)
	if err != nil {
		return nil, err
	}
	capacity := float64(sat.frames) / sat.wall.Seconds()
	nominalRung := int(math.Floor(fleetNominalFPS / fleetRungFPS))
	lo := min(int(capacity/fleetRungFPS), fleetRungs)
	if !nominalPassed {
		lo = min(lo, nominalRung-1)
	}
	for ; lo > 0; lo -= max(1, lo/20) {
		if nominalPassed && lo <= nominalRung {
			lo = nominalRung // the nominal rate passed
			break
		}
		passed := false
		for try := 0; try < 2 && !passed; try++ {
			s, err := step(float64(lo)*fleetRungFPS, nil)
			if err != nil {
				return nil, err
			}
			passed = s.passed()
			probes = append(probes, probe{s.rate, s.tail(), s.growing, s.streamsLost, passed})
		}
		if passed {
			break
		}
	}
	lo = max(lo, 0)
	rep.notes["capacity_fps"] = capacity
	best := float64(lo) * fleetRungFPS
	rep.set("throughput_fps", best, "frames/s")
	rep.notes["nominal_steps"] = len(nominal)
	rep.notes["ladder"] = probes
	return rep, nil
}

// fleetTraced spends half the run on untraced nominal steps and half on
// traced ones, and reports the per-layer metrics per step.
func fleetTraced(cfg runConfig, rep *report, step func(float64, *tracer) (stepResult, error)) error {
	half := cfg.seconds / 2
	var untraced []float64
	alloc0, gc0 := goCounters()
	frames, steps := 0, 0
	for deadline := time.Now().Add(half); steps == 0 || time.Now().Before(deadline); steps++ {
		s, err := step(fleetNominalFPS, nil)
		if err != nil {
			return err
		}
		untraced = append(untraced, s.e2e...)
		frames += s.frames
	}
	alloc1, gc1 := goCounters()
	rep.set("go.alloc_bytes_per_frame", float64(alloc1-alloc0)/float64(frames), "bytes")
	rep.set("go.gc_cycles", float64(gc1-gc0)/float64(steps), "count")

	tr := newTracer()
	var sum stepResult
	var wait, lag []float64
	var cnt counters
	n := 0
	for deadline := time.Now().Add(half); n == 0 || time.Now().Before(deadline); n++ {
		s, err := step(fleetNominalFPS, tr)
		if err != nil {
			return err
		}
		for i := range s.e2e {
			wait = append(wait, s.e2e[i]-s.turn[i])
		}
		lag = append(lag, s.lag...)
		sum.e2e = append(sum.e2e, s.e2e...)
		sum.turn = append(sum.turn, s.turn...)
		sum.pushMS = append(sum.pushMS, s.pushMS...)
		sum.backlogMax = max(sum.backlogMax, s.backlogMax)
		sum.client.Requests += s.client.Requests
		sum.client.Retries += s.client.Retries
		sum.client.Throttled += s.client.Throttled
		sum.ckptCount += s.ckptCount
		sum.ckptBytes += s.ckptBytes
		sum.ckptMax = max(sum.ckptMax, s.ckptMax)
		sum.windows += s.windows
		sum.virtual += s.virtual
		sum.stats.Distances += s.stats.Distances
		sum.stats.Extractions += s.stats.Extractions
		sum.stats.CacheHits += s.stats.CacheHits
		cnt.add(s.calls)
	}
	units := float64(n)
	turn, qw, push := tailOf(sum.turn, 99), tailOf(wait, 99), tailOf(sum.pushMS, 99)
	rep.set("serve.turn_ms_p50", turn.Median, "ms")
	rep.set("serve.turn_ms_p99", turn.Value, "ms")
	rep.set("serve.queue_wait_ms_p50", qw.Median, "ms")
	rep.set("serve.queue_wait_ms_p99", qw.Value, "ms")
	rep.set("serve.backlog_frames_max", float64(sum.backlogMax), "frames")
	rep.set("ingress.requests", float64(sum.client.Requests)/units, "count")
	rep.set("ingress.retries", float64(sum.client.Retries)/units, "count")
	rep.set("ingress.throttled", float64(sum.client.Throttled)/units, "count")
	rep.set("ingress.push_ms_p50", push.Median, "ms")
	rep.set("ingress.push_ms_p99", push.Value, "ms")
	rep.set("loadgen.lag_ms_p99", tailOf(lag, 99).Value, "ms")
	rep.set("checkpoint.count", float64(sum.ckptCount)/units, "count")
	rep.set("checkpoint.bytes", float64(sum.ckptBytes)/units, "bytes")
	rep.set("checkpoint.bytes_max", float64(sum.ckptMax), "bytes")
	rep.set("ingest.windows", float64(sum.windows)/units, "count")
	rep.set("device.virtual_ms", ms(sum.virtual)/units, "ms")
	setOracleMetrics(rep, sum.stats, units)
	setCounterMetrics(rep, &cnt, units)
	rep.notes["serve.turn_ms_p99"] = map[string]any{"percentile": turn.P, "samples": turn.N}
	rep.notes["traced_steps"] = n
	// The clients' push spans overlap the daemon's work on the same
	// frames, so the self-time table covers the window trees only.
	spans := tr.snapshot()
	var windows []span
	var pushBusy time.Duration
	for _, s := range spans {
		if s.Name == "ingress.push" {
			pushBusy += s.dur()
		} else {
			windows = append(windows, s)
		}
	}
	setSpanMetrics(rep, windows, n)
	rep.set("ingress.self_ms", ms(pushBusy)/units, "ms")
	setOverhead(rep, tailOf(untraced, 99).Median, tailOf(sum.e2e, 99).Median)
	return writeNDJSON(spanFile(cfg, "fleet-http"), spans)
}
