package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"trapp/internal/aggregate"
	"trapp/internal/experiment"
	"trapp/internal/query"
	itrapp "trapp/internal/trapp"
	"trapp/internal/workload"
)

// refresh-tight: an in-process System over the links, driven by one
// goroutine. Queries ask for less width than the cached bounds give, so
// CHOOSE_REFRESH, the source refresh batches and the refold do the work;
// after every tightEvery queries a batch of random-walk pushes and one
// tick land. Every answer is checked against the master values.

const (
	tightEvery = 10  // queries between push batches
	tightBatch = 100 // pushes per batch, followed by one tick
)

type tightLoad struct {
	h   *harness
	sys *itrapp.System
	eng *engine
	ls  *linkSet
	n   int
}

func buildTight(h *harness) (load, error) {
	sys, netw, err := experiment.BuildLinkSystem(linksFor(h.cfg), linkSources, h.cfg.seed)
	if err != nil {
		return nil, err
	}
	l := &tightLoad{h: h, sys: sys, eng: &engine{inner: systemEngine{sys}, h: h}}
	l.ls = newLinkSet(netw, sys.MountedCache(linkTable).Schema(), h.cfg.seed, tightMix)
	store := sys.MountedCache(linkTable).Store()
	for i := range netw.Links {
		l.ls.srcs[i] = sys.Source(fmt.Sprintf("s%d", i%linkSources))
		l.ls.stores[i] = store
	}
	return l, nil
}

// tightMix draws SUM, AVG and MIN queries whose constraint sits below
// the converged bound width (0.5 per link), plus budgeted and precise
// requests.
func tightMix(rng *rand.Rand, links int) spec {
	var s spec
	switch rng.Intn(3) {
	case 0:
		s = newSpec(linkTable, aggregate.Sum, workload.ColLatency)
		s.within = (0.1 + rng.Float64()*0.3) * 0.5 * float64(links)
	case 1:
		s = newSpec(linkTable, aggregate.Avg, workload.ColTraffic)
		s.within = 0.1 + rng.Float64()*0.3
	default:
		s = newSpec(linkTable, aggregate.Min, workload.ColBandwidth)
		s.within = 0.1 + rng.Float64()*0.3
	}
	switch r := rng.Float64(); {
	case r < 0.05:
		s.mode = query.ModePrecise
	case r < 0.15:
		s.within = math.Inf(1)
		s.budget = float64(20 + rng.Intn(181))
	}
	return s
}

// drive runs queries closed loop on the calling goroutine. Pushes are
// closed loop too, so each is timed from its own start.
func (l *tightLoad) drive(d time.Duration, w *window) {
	h := l.h
	ctx := context.Background()
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		if l.n++; l.n%tightEvery == 0 {
			for j := 0; j < tightBatch; j++ {
				t0 := time.Now()
				h.attempted.Add(1)
				if err := l.ls.push(h); err != nil {
					h.violate("push: %v", err)
				}
				w.plat = append(w.plat, us(time.Since(t0)))
				w.pushes++
			}
			l.sys.Clock.Advance(1)
		}
		s := l.ls.nextQuery()
		q := s.query(l.ls.schema)
		t0 := time.Now()
		res, err := l.eng.ExecuteCtx(ctx, q, s.opts()...)
		w.qlat = append(w.qlat, us(time.Since(t0)))
		w.queries++
		w.cost += res.RefreshCost
		truth, ok := s.truth(l.ls.schema, l.ls.rows)
		h.check(s, res, err, truth, ok)
		if r, ok := budgetRatio(s, res); ok {
			w.budget = append(w.budget, r)
		}
	}
}

// verify is a no-op: drive checks every answer.
func (l *tightLoad) verify() {}

func (l *tightLoad) counters(c counters) { addEngineCounters(c, l.sys) }

func (l *tightLoad) finish() error { return nil }

func (l *tightLoad) close() { l.sys.Close() }
