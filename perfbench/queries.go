package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"github.com/tmerge/tmerge/internal/geom"
	"github.com/tmerge/tmerge/internal/query"
	"github.com/tmerge/tmerge/internal/video"
)

// querySet is the four query operators a workload answers, with
// parameters sized to its scenes so every answer is populated.
type querySet struct {
	count    query.CountQuery
	region   query.RegionQuery
	cooccur  query.CoOccurQuery
	precedes query.PrecedesQuery
}

// pathQueries fit the 1280×720 PathTrack-like scenes (spans 150–1000).
var pathQueries = querySet{
	count:    query.CountQuery{MinFrames: 300},
	region:   query.RegionQuery{Region: geom.Rect{X: 0, Y: 0, W: 640, H: 720}, MinFrames: 120},
	cooccur:  query.CoOccurQuery{GroupSize: 2, MinFrames: 200},
	precedes: query.PrecedesQuery{MinGap: 100, MinOverlap: 50},
}

// streetQueries fit the 800×600 loadgen camera scenes (spans 40–200).
var streetQueries = querySet{
	count:    query.CountQuery{MinFrames: 100},
	region:   query.RegionQuery{Region: geom.Rect{X: 0, Y: 0, W: 400, H: 600}, MinFrames: 40},
	cooccur:  query.CoOccurQuery{GroupSize: 2, MinFrames: 60},
	precedes: query.PrecedesQuery{MinGap: 30, MinOverlap: 20},
}

// opKinds lists the operators in the order every answer is laid out.
var opKinds = []string{"count", "region", "cooccur", "precedes"}

// batch answers the four queries over a merged track set, in the row
// shape the incremental operators use.
func (q querySet) batch(ts *video.TrackSet) [][][]video.TrackID {
	out := make([][][]video.TrackID, 4)
	for _, id := range q.count.Answer(ts) {
		out[0] = append(out[0], []video.TrackID{id})
	}
	for _, id := range q.region.Answer(ts) {
		out[1] = append(out[1], []video.TrackID{id})
	}
	for _, g := range q.cooccur.Answer(ts) {
		out[2] = append(out[2], []video.TrackID(g))
	}
	for _, p := range q.precedes.Answer(ts) {
		out[3] = append(out[3], []video.TrackID{p.First, p.Second})
	}
	return out
}

// incremental builds fresh operators, ordered like batch.
func (q querySet) incremental() []query.Incremental {
	return []query.Incremental{
		query.NewIncCount(q.count),
		query.NewIncRegion(q.region),
		query.NewIncCoOccur(q.cooccur),
		query.NewIncPrecedes(q.precedes),
	}
}

// results reads every operator's current rows.
func results(ops []query.Incremental) [][][]video.TrackID {
	out := make([][][]video.TrackID, len(ops))
	for i, op := range ops {
		out[i] = op.Results()
	}
	return out
}

// digest fingerprints a set of answers; empty and nil rows agree.
func digest(answers [][][]video.TrackID) string {
	h := sha256.New()
	for i, rows := range answers {
		fmt.Fprintf(h, "op%d:%d\n", i, len(rows))
		for _, r := range rows {
			fmt.Fprintln(h, r)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
