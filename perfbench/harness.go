package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trapp/internal/netsim"
	itrapp "trapp/internal/trapp"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	out      string
	// tiny shrinks every workload to a smoke-test size.
	tiny bool
	// fault is injected through the wrappers by the self-tests.
	fault fault
}

// fault is a deliberate defect the self-tests inject through the
// benchmark's wrappers to prove its gates and per-layer metrics react.
type fault struct {
	// shift is added to every answer the wrapped engine returns.
	shift float64
	// nodeDelay is slept inside every wrapped partition State call.
	nodeDelay time.Duration
}

// load is one workload's system under test, between set-up and teardown.
type load interface {
	// drive runs the load goroutines for d and waits for them, recording
	// into w. Each goroutine writes only its own fields of w.
	drive(d time.Duration, w *window)
	// verify checks a deterministic sample of answers against the
	// sources' master values while no load runs.
	verify()
	// counters adds the program's cumulative counters to c.
	counters(c counters)
	// finish runs the workload's end-of-run steps, such as the durable
	// close and reopen.
	finish() error
	close()
}

// workloadDef names one workload and how to build its system.
type workloadDef struct {
	name  string
	build func(h *harness) (load, error)
}

var workloads = []workloadDef{
	{name: "serve-durable", build: buildServe},
	{name: "refresh-tight", build: buildTight},
	{name: "scale-ingest", build: buildScale},
	{name: "cluster-scatter", build: buildCluster},
}

// Set-up is repeated at least setupReps times, and further while the
// repetitions took less than setupBudget in all (at most setupMaxReps),
// so a quick set-up is sampled often enough that its median holds
// still; setup_s is the median.
const (
	setupReps    = 5
	setupMaxReps = 25
	setupBudget  = time.Second
)

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// window is what one measured interval recorded. Query-side fields are
// written by the query goroutine, push-side fields by the updater.
type window struct {
	traced  bool
	elapsed time.Duration

	queries int64
	cost    float64
	qlat    []float64 // µs per query

	pushes  int64
	target  float64   // pushes/s the open-loop generator aimed for
	due     int64     // pushes that fell due in the window
	plat    []float64 // µs per push, from when it was due
	late    []float64 // µs the generator woke after each batch was due
	backlog float64   // µs the last batch of the window ran late

	budget []float64 // final over initial width of budgeted answers
	lag    []float64 // ms from a tick to the end of the next settle
	settle []float64 // ms per Settle call

	delta counters
}

// counters is a set of cumulative program counters; windows record the
// delta across them.
type counters map[string]float64

func (c counters) sub(prev counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - prev[k]
	}
	return out
}

// harness is shared by a run's workload, wrappers and checks.
type harness struct {
	cfg     config
	tracing atomic.Bool
	rec     *recorder

	attempted atomic.Int64
	failed    atomic.Int64

	vmu        sync.Mutex
	violations []string
}

// violate records a failed operation or a broken contract.
func (h *harness) violate(format string, args ...any) {
	h.failed.Add(1)
	h.vmu.Lock()
	if len(h.violations) < 20 {
		h.violations = append(h.violations, fmt.Sprintf(format, args...))
	}
	h.vmu.Unlock()
}

// scratch returns a fresh directory under the run's output directory.
func (h *harness) scratch(prefix string) (string, error) {
	base := filepath.Join(h.cfg.out, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix)
}

// run executes one benchmark run: set-up (repeated for setup_s), a
// warm-up, the measured windows with a correctness sample after each,
// and the workload's end-of-run steps.
func run(cfg config) (*report, error) {
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	h := &harness{cfg: cfg, rec: newRecorder()}

	var ld load
	var setups []float64
	var spent time.Duration
	for i := 0; i < setupReps || (!cfg.tiny && spent < setupBudget && i < setupMaxReps); i++ {
		if ld != nil {
			ld.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if ld, err = wl.build(h); err != nil {
			return nil, fmt.Errorf("set up %s: %w", wl.name, err)
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
	}
	defer ld.close()

	// Warm-up: adaptive widths, plan caches and connection buffers
	// settle before anything is measured.
	ld.drive(warmup(cfg), &window{})

	// Untraced runs measure every window; traced runs alternate
	// untraced and traced windows.
	const nwin = 20
	per := cfg.window / time.Duration(nwin)
	var wins []*window
	for i := 0; i < nwin; i++ {
		w := &window{traced: cfg.trace && i%2 == 1}
		before := readCounters(ld)
		h.tracing.Store(w.traced)
		t0 := time.Now()
		ld.drive(per, w)
		w.elapsed = time.Since(t0)
		h.tracing.Store(false)
		w.delta = readCounters(ld).sub(before)
		checkGenerator(h, w)
		ld.verify()
		wins = append(wins, w)
	}

	rep := &report{env: envStamp(cfg)}
	if cfg.trace {
		rep.metrics = perLayer(h, wins)
	} else {
		rep.metrics = endToEnd(wins, setups)
	}
	rep.extra = extraEndToEnd(wins)
	// The live heap is read while the system is still up, once the
	// windows' samples are garbage.
	wins = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if !cfg.trace {
		rep.set("heap_mb", float64(ms.HeapAlloc)/(1<<20), 1)
	}

	if err := ld.finish(); err != nil {
		return nil, fmt.Errorf("finish %s: %w", wl.name, err)
	}
	if rs := h.rec.get("wal.recovery_s"); len(rs) > 0 {
		n := int64(len(rs))
		rep.extra = append(rep.extra, extraMetric{"recovery_s", "s", median(rs), n})
		if cfg.trace {
			rep.set("wal.recovery_s", median(rs), n)
			rep.set("wal.records_replayed", h.rec.get("wal.records_replayed")[0], 1)
		}
	}
	if cfg.trace {
		if err := h.rec.dump(cfg); err != nil {
			return nil, err
		}
	}
	rep.attempted, rep.failed, rep.violations = h.attempted.Load(), h.failed.Load(), h.violations
	return rep, nil
}

func warmup(cfg config) time.Duration {
	if cfg.tiny {
		return 100 * time.Millisecond
	}
	return 2 * time.Second
}

// checkGenerator fails a window whose open-loop generator fell behind:
// a saturated run must not pass as a fast one.
func checkGenerator(h *harness, w *window) {
	if w.target == 0 {
		return
	}
	if float64(w.pushes) < 0.98*float64(w.due) {
		h.violate("open loop fell behind: %d of %d due pushes done", w.pushes, w.due)
	}
	if w.backlog > 50e3 {
		h.violate("open loop backlog grew to %.1f ms", w.backlog/1e3)
	}
}

// readCounters snapshots the program's counters plus the Go runtime's.
func readCounters(ld load) counters {
	c := counters{}
	ld.counters(c)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	for _, s := range samples {
		if s.Value.Kind() == metrics.KindFloat64 {
			c[s.Name] = s.Value.Float64()
		} else if s.Value.Kind() == metrics.KindUint64 {
			c[s.Name] = float64(s.Value.Uint64())
		}
	}
	return c
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// addEngineCounters adds one system's plan-cache, traffic and
// continuous-engine counters to c.
func addEngineCounters(c counters, sys *itrapp.System) {
	pc := sys.Metrics().Counters()
	c["plan_hits"] += float64(pc["plan_cache_hits"])
	c["plan_misses"] += float64(pc["plan_cache_misses"])
	c["plan_invalidations"] += float64(pc["plan_cache_invalidations"])
	st := sys.Stats()
	c["query_msgs"] += float64(st.Messages[netsim.QueryRefresh])
	c["value_msgs"] += float64(st.Messages[netsim.ValueRefresh])
	sm := sys.SubscriptionMetrics()
	c["sub_refreshed"] += float64(sm.RefreshedObjects)
	c["sub_cost"] += sm.RefreshCost
	c["sub_notifications"] += float64(sm.Notifications)
}
