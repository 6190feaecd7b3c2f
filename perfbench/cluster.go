package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"trapp/internal/experiment"
	"trapp/internal/partition"
	"trapp/internal/query"
	"trapp/internal/refresh"
	itrapp "trapp/internal/trapp"
)

// cluster-scatter: the links split over three in-process partitions
// behind the scatter-gather coordinator. One closed-loop goroutine
// queries through the coordinator; one open-loop updater routes each
// push to the owning partition's source and ticks every partition clock.

const (
	clusterNodes  = 3
	clusterChecks = 24
)

var clusterLoop = openLoop{batch: 8, period: 2 * time.Millisecond, tickEvery: 200}

type clusterLoad struct {
	h       *harness
	systems []*itrapp.System
	cl      *partition.Cluster
	eng     *engine
	ls      *linkSet

	vrng *rand.Rand
}

func buildCluster(h *harness) (load, error) {
	systems, netw, ring, err := experiment.BuildLinkPartitions(linksFor(h.cfg), linkSources, h.cfg.seed,
		experiment.PartitionIDs(clusterNodes))
	if err != nil {
		return nil, err
	}
	l := &clusterLoad{h: h, systems: systems}
	nodes := make([]partition.Node, len(systems))
	for i, sys := range systems {
		nodes[i] = &node{Node: partition.NewLocalNode(fmt.Sprintf("p%d", i), sys), h: h}
	}
	l.cl, err = partition.New(context.Background(), nodes,
		partition.Config{Options: refresh.Options{Solver: refresh.SolverGreedyDensity}})
	if err != nil {
		l.close()
		return nil, err
	}
	l.eng = &engine{inner: l.cl, h: h}
	l.ls = newLinkSet(netw, systems[0].MountedCache(linkTable).Schema(), h.cfg.seed, func(rng *rand.Rand, links int) spec {
		return linkMix(rng, links, 0.01, 0.01)
	})
	for i, lk := range netw.Links {
		owner := systems[ring.OwnerOfKey(lk.Key)]
		l.ls.srcs[i] = owner.Source(fmt.Sprintf("s%d", i%linkSources))
		l.ls.stores[i] = owner.MountedCache(linkTable).Store()
	}
	l.vrng = rand.New(rand.NewSource(h.cfg.seed + 3))
	return l, nil
}

func (l *clusterLoad) drive(d time.Duration, w *window) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		clusterLoop.run(l.h, d, w, &l.ls.pushed, func() error { return l.ls.push(l.h) },
			func() {
				for _, sys := range l.systems {
					sys.Clock.Advance(1)
				}
			})
	}()
	h := l.h
	ctx := context.Background()
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		s := l.ls.nextQuery()
		q := s.query(l.ls.schema)
		t0 := time.Now()
		res, err := l.eng.ExecuteCtx(ctx, q, s.opts()...)
		w.qlat = append(w.qlat, us(time.Since(t0)))
		w.queries++
		w.cost += res.RefreshCost
		if h.contract(s, res, err) {
			if r, ok := budgetRatio(s, res); ok {
				w.budget = append(w.budget, r)
			}
		}
	}
	wg.Wait()
}

func (l *clusterLoad) verify() {
	ctx := context.Background()
	l.ls.verify(l.h, l.vrng, clusterChecks, func(s spec) (query.Result, error) {
		return l.eng.ExecuteCtx(ctx, s.query(l.ls.schema), s.opts()...)
	})
}

func (l *clusterLoad) counters(c counters) {
	for _, sys := range l.systems {
		addEngineCounters(c, sys)
	}
}

func (l *clusterLoad) finish() error { return nil }

func (l *clusterLoad) close() {
	if l.cl != nil {
		l.cl.Close()
	}
	for _, sys := range l.systems {
		sys.Close()
	}
}
