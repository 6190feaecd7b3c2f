package main

import (
	"math"
	"math/rand"
	"time"

	"trapp/internal/aggregate"
	"trapp/internal/predicate"
	"trapp/internal/query"
	"trapp/internal/relation"
	"trapp/internal/source"
	"trapp/internal/workload"
)

// The link workloads (serve-durable, refresh-tight, cluster-scatter)
// run over the 2,000-link monitoring network of the E13 benchmarks.
const (
	linkCount   = 2000
	linkSources = 8
	linkTable   = "links"
)

func linksFor(cfg config) int {
	if cfg.tiny {
		return 200
	}
	return linkCount
}

// linkSet is a link workload's seeded input generator. It mirrors the
// links' master values, so answers can be checked against the exact
// aggregate, and knows where each link lives.
type linkSet struct {
	net    *workload.Network
	schema *relation.Schema
	rows   [][]float64       // full schema rows: from, to, latency, bandwidth, traffic
	srcs   []*source.Source  // source owning link i
	stores []*relation.Store // store caching link i
	wal    *relation.WAL     // the table's log, when durable
	pushed int               // pushes made by an open-loop updater

	qrng, urng *rand.Rand
	mix        func(rng *rand.Rand, links int) spec
}

func newLinkSet(net *workload.Network, schema *relation.Schema, seed int64, mix func(*rand.Rand, int) spec) *linkSet {
	ls := &linkSet{net: net, schema: schema, mix: mix,
		qrng: rand.New(rand.NewSource(seed + 1)), urng: rand.New(rand.NewSource(seed + 2))}
	for _, l := range net.Links {
		ls.rows = append(ls.rows, append([]float64{float64(l.From), float64(l.To)}, l.Values()...))
	}
	ls.srcs = make([]*source.Source, len(net.Links))
	ls.stores = make([]*relation.Store, len(net.Links))
	return ls
}

// nextQuery draws the workload's next query.
func (ls *linkSet) nextQuery() spec { return ls.mix(ls.qrng, len(ls.rows)) }

// nextPush random-walks a uniformly chosen link and returns its index
// and new values.
func (ls *linkSet) nextPush() (int, []float64) {
	i := ls.urng.Intn(len(ls.rows))
	v := ls.net.Links[i].Step()
	copy(ls.rows[i][2:], v)
	return i, v
}

// push steps the next link and pushes its new values to its source.
func (ls *linkSet) push(h *harness) error {
	i, v := ls.nextPush()
	l := ls.net.Links[i]
	if !h.tracing.Load() {
		return h.push(ls.srcs[i], l.Key, v)
	}
	h.rec.add("relation.push_shard", float64(ls.stores[i].ShardOf(l.Key)))
	if ls.wal == nil {
		return h.push(ls.srcs[i], l.Key, v)
	}
	gen, before := ls.wal.Gen(), ls.wal.LogBytes()
	err := h.push(ls.srcs[i], l.Key, v)
	logged := ls.wal.LogBytes()
	if ls.wal.Gen() == gen {
		logged -= before // else a checkpoint restarted the count
	}
	h.rec.add("wal.bytes_per_push", float64(logged))
	return err
}

// verify checks n answers from exec against the master values.
func (ls *linkSet) verify(h *harness, rng *rand.Rand, n int, exec func(s spec) (query.Result, error)) {
	for i := 0; i < n; i++ {
		s := linkMix(rng, len(ls.rows), 0.1, 0.2)
		res, err := exec(s)
		truth, ok := s.truth(ls.schema, ls.rows)
		h.check(s, res, err, truth, ok)
	}
}

// linkMix draws one query of the E13 mix — SUM, AVG, MIN and MAX with
// moderate constraints answered mostly from cache, an occasional
// predicate, an occasional unconstrained probe — and turns a share of
// the extremes into precise requests and of all into budgeted ones (no
// constraint, a cost budget: the narrowest answer the budget buys).
func linkMix(rng *rand.Rand, links int, precise, budgeted float64) spec {
	var s spec
	switch rng.Intn(5) {
	case 0:
		s = newSpec(linkTable, aggregate.Sum, workload.ColLatency)
		s.within = (10 + rng.Float64()*20) * float64(links)
	case 1:
		s = newSpec(linkTable, aggregate.Avg, workload.ColTraffic)
		s.within = 10 + rng.Float64()*30
	case 2:
		s = newSpec(linkTable, aggregate.Min, workload.ColBandwidth)
		s.within = 15 + rng.Float64()*30
	case 3:
		s = newSpec(linkTable, aggregate.Max, workload.ColLatency)
		s.within = 10 + rng.Float64()*20
		s.where = &cmp{col: workload.ColTraffic, op: predicate.Gt, val: 120}
	default:
		s = newSpec(linkTable, aggregate.Sum, workload.ColTraffic)
	}
	switch r := rng.Float64(); {
	case r < precise && (s.agg == aggregate.Min || s.agg == aggregate.Max):
		// Precise extremes refresh only their candidates; a precise SUM
		// would refresh every link.
		s.mode = query.ModePrecise
	case r < precise+budgeted:
		s.within = math.Inf(1)
		s.budget = float64(5 + rng.Intn(46))
	}
	return s
}

// budgetRatio is a budgeted answer's final width over its initial one.
func budgetRatio(s spec, res query.Result) (float64, bool) {
	if s.budget < 0 || res.Initial.IsEmpty() || res.Initial.Width() <= 0 || res.Answer.IsEmpty() {
		return 0, false
	}
	return res.Answer.Width() / res.Initial.Width(), true
}

// openLoop paces a push stream independently of how fast the system
// answers: batch k of size batch falls due at start + k·period, every
// push is timed from when its batch fell due, and a generator that falls
// behind keeps going (the backlog shows in the latencies and in
// checkGenerator) until a grace period past the window's end.
type openLoop struct {
	batch  int
	period time.Duration
	// tickEvery advances the logical clock after that many pushes.
	tickEvery int
}

func (o openLoop) rate() float64 { return float64(o.batch) / o.period.Seconds() }

// run drives push for d, recording into w's push-side fields. tick is
// called after every tickEvery pushes; pushed carries the count across
// windows, so the clock's cadence does not depend on how the run is cut.
func (o openLoop) run(h *harness, d time.Duration, w *window, pushed *int, push func() error, tick func()) {
	if h.cfg.tiny {
		// Smoke runs also go under the race detector; the clock keeps
		// its cadence.
		o.period *= 10
		o.tickEvery = max(1, o.tickEvery/10)
	}
	start := time.Now()
	end := start.Add(d)
	giveUp := end.Add(d / 10)
	w.target = o.rate()
	w.due = int64(math.Ceil(float64(d)/float64(o.period))) * int64(o.batch)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * o.period)
		if !due.Before(end) {
			break
		}
		now := time.Now()
		if now.After(giveUp) {
			break
		}
		if wait := due.Sub(now); wait > 0 {
			time.Sleep(wait)
		}
		late := us(time.Since(due))
		w.late = append(w.late, late)
		w.backlog = late
		for j := 0; j < o.batch; j++ {
			h.attempted.Add(1)
			if err := push(); err != nil {
				h.violate("push: %v", err)
			}
			w.plat = append(w.plat, us(time.Since(due)))
			w.pushes++
			if *pushed++; *pushed%o.tickEvery == 0 {
				tick()
			}
		}
	}
}
