package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"trapp/internal/aggregate"
	"trapp/internal/experiment"
	"trapp/internal/predicate"
	"trapp/internal/relation"
	"trapp/internal/source"
	"trapp/internal/sql"
	itrapp "trapp/internal/trapp"
	"trapp/internal/workload"
)

// scale-ingest: the multi-tenant scale system (10,000 objects over 32
// Zipf-sized tenants, 16 sources) with 8 standing queries from the scale
// generator. One open-loop updater pushes with Zipf(1.2) key skew and
// ticks the clock after a fixed count of pushes; one closed-loop
// goroutine picks tenants with Zipf(1.1) skew and, whenever it sees a
// new tick, settles the continuous engine before its next query.

const (
	scaleObjects = 10_000
	scaleTenants = 32
	scaleSubs    = 8
	scaleChecks  = 24
	scaleSources = 16
)

// Five ticks a second, a hundred in a 20 s run. The refresh a tick
// forces is paid by the query goroutine on top of its per-query work,
// so the larger its share of that goroutine's time, the more a change
// in machine speed moves the query rate.
var scaleLoop = openLoop{batch: 10, period: 2 * time.Millisecond, tickEvery: 1000}

type scaleLoad struct {
	h      *harness
	sys    *itrapp.System
	eng    *engine
	sc     *workload.Scale
	schema *relation.Schema
	stores []*relation.Store
	srcs   []*source.Source
	cancel context.CancelFunc

	qz, uz                 *workload.Zipf
	qrng, urng, wrng, vrng *rand.Rand

	pushed int

	mu     sync.Mutex
	tickAt []time.Time // wall time of each tick, indexed by clock value
	seen   int64       // every tick up to this one has been settled
}

func buildScale(h *harness) (load, error) {
	objects, tenants := scaleObjects, scaleTenants
	if h.cfg.tiny {
		objects, tenants = 4000, 8
	}
	sys, sc, err := experiment.BuildScaleSystem(objects, tenants, h.cfg.seed)
	if err != nil {
		return nil, err
	}
	l := &scaleLoad{h: h, sys: sys, sc: sc, eng: &engine{inner: systemEngine{sys}, h: h}}
	ctx, cancel := context.WithCancel(context.Background())
	l.cancel = cancel
	// Standing queries sit on evenly spaced tenants among the smaller
	// three quarters (one on the megatenant repairs thousands of objects
	// per tick), each of the generator's shapes in turn, so every seed
	// draws the same maintenance load.
	subRng := rand.New(rand.NewSource(h.cfg.seed + 4))
	shapes := []string{"SELECT SUM", "SELECT AVG", "SELECT MAX"}
	for i := 0; i < scaleSubs; i++ {
		t := tenants/4 + i*(tenants-tenants/4)/scaleSubs
		text := sc.SubscriptionSQL(subRng, t)
		for !strings.HasPrefix(text, shapes[i%len(shapes)]) {
			text = sc.SubscriptionSQL(subRng, t)
		}
		q, err := sql.Parse(text, sys.Catalog())
		if err == nil {
			_, err = sys.SubscribeCtx(ctx, q)
		}
		if err != nil {
			l.close()
			return nil, fmt.Errorf("subscribe %q: %w", text, err)
		}
	}
	for t := 0; t < tenants; t++ {
		l.stores = append(l.stores, sys.MountedCache(workload.TenantName(t)).Store())
	}
	l.schema = l.stores[0].Schema()
	for i := 0; i < scaleSources; i++ {
		l.srcs = append(l.srcs, sys.Source(fmt.Sprintf("s%d", i)))
	}
	l.qz = workload.MustZipf(tenants, 1.1)
	l.uz = workload.MustZipf(objects, 1.2)
	l.qrng = rand.New(rand.NewSource(h.cfg.seed + 1))
	l.urng = rand.New(rand.NewSource(h.cfg.seed + 2))
	l.wrng = rand.New(rand.NewSource(h.cfg.seed + 5))
	l.vrng = rand.New(rand.NewSource(h.cfg.seed + 3))
	l.tickAt = []time.Time{time.Now()}
	l.seen = sys.Clock.Now()
	return l, nil
}

// scaleMix draws one query of the scale mix against a tenant: loose SUM
// and relative AVG answered from cache, MIN and MAX whose constraint
// sits near the converged 0.5 bound width (they pay once bounds have
// grown since their last refresh), and predicate COUNTs.
func (l *scaleLoad) scaleMix(rng *rand.Rand, tenant int) spec {
	name := workload.TenantName(tenant)
	sz := float64(l.sc.TenantSize(tenant))
	var s spec
	switch rng.Intn(5) {
	case 0:
		s = newSpec(name, aggregate.Sum, "value")
		s.within = (1 + rng.Float64()*4) * sz
	case 1:
		s = newSpec(name, aggregate.Avg, "load")
		s.rel = 0.02 + rng.Float64()*0.18
	case 2:
		s = newSpec(name, aggregate.Min, "value")
		s.within = 0.4 + rng.Float64()*0.8
	case 3:
		s = newSpec(name, aggregate.Count, "value")
		s.within = (0.002 + rng.Float64()*0.01) * sz
		s.where = &cmp{col: "load", op: predicate.Gt, val: float64(20 + rng.Intn(60))}
	default:
		s = newSpec(name, aggregate.Max, "load")
		s.within = 0.4 + rng.Float64()*0.8
		s.where = &cmp{col: "region", op: predicate.Eq, val: float64(rng.Intn(l.sc.Config.Regions))}
	}
	return s
}

func (l *scaleLoad) drive(d time.Duration, w *window) {
	h := l.h
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		scaleLoop.run(h, d, w, &l.pushed, l.push, l.tick)
	}()
	ctx := context.Background()
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		if l.sys.Clock.Now() > l.seen {
			l.settle(w)
		}
		s := l.nextQuery()
		t0 := time.Now()
		res, err := l.eng.ExecuteCtx(ctx, s.query(l.schema), s.opts()...)
		w.qlat = append(w.qlat, us(time.Since(t0)))
		w.queries++
		w.cost += res.RefreshCost
		h.contract(s, res, err)
	}
	wg.Wait()
	l.settle(w)
}

// Push steps: every object walks with the same step size, so which
// objects the Zipf draw makes hot does not change how often a push
// escapes its bound.
const scaleStepValue, scaleStepLoad = 0.6, 1.25

// nextQuery draws the next query against a Zipf-chosen tenant.
func (l *scaleLoad) nextQuery() spec { return l.scaleMix(l.qrng, l.qz.Rank(l.qrng)) }

// nextPush random-walks one Zipf-chosen object and returns its index
// and new values.
func (l *scaleLoad) nextPush() (int, []float64) {
	i := l.uz.Rank(l.urng)
	o := &l.sc.Objects[i]
	o.Value = math.Max(0, o.Value+l.wrng.NormFloat64()*scaleStepValue)
	o.Load = math.Max(0, o.Load+l.wrng.NormFloat64()*scaleStepLoad)
	return i, o.Values()
}

// push steps the next object and pushes its new values.
func (l *scaleLoad) push() error {
	i, vals := l.nextPush()
	o := &l.sc.Objects[i]
	if l.h.tracing.Load() {
		l.h.rec.add("relation.push_shard", float64(l.stores[o.Tenant].ShardOf(o.Key)))
	}
	return l.h.push(l.srcs[int(o.Key)%scaleSources], o.Key, vals)
}

func (l *scaleLoad) tick() {
	now := l.sys.Clock.Advance(1)
	l.mu.Lock()
	for int64(len(l.tickAt)) <= now {
		l.tickAt = append(l.tickAt, time.Now())
	}
	l.mu.Unlock()
}

// settle drains the continuous engine and records, for every tick that
// happened before the settle began, the lag until it returned.
func (l *scaleLoad) settle(w *window) {
	b := time.Now()
	l.sys.Settle()
	e := time.Now()
	w.settle = append(w.settle, float64(e.Sub(b))/1e6)
	l.mu.Lock()
	defer l.mu.Unlock()
	for t := l.seen + 1; t < int64(len(l.tickAt)) && l.tickAt[t].Before(b); t++ {
		w.lag = append(w.lag, float64(e.Sub(l.tickAt[t]))/1e6)
		l.seen = t
	}
}

func (l *scaleLoad) verify() {
	ctx := context.Background()
	for i := 0; i < scaleChecks; i++ {
		t := l.qz.Rank(l.vrng)
		s := l.scaleMix(l.vrng, t)
		res, err := l.eng.ExecuteCtx(ctx, s.query(l.schema), s.opts()...)
		objs := l.sc.TenantObjects(t)
		rows := make([][]float64, len(objs))
		for j := range objs {
			rows[j] = []float64{float64(objs[j].Region), objs[j].Value, objs[j].Load}
		}
		truth, ok := s.truth(l.schema, rows)
		l.h.check(s, res, err, truth, ok)
	}
}

func (l *scaleLoad) counters(c counters) {
	addEngineCounters(c, l.sys)
	c["ticks"] = float64(l.sys.Clock.Now())
}

func (l *scaleLoad) finish() error { return nil }

func (l *scaleLoad) close() {
	l.cancel()
	l.sys.Close()
}
