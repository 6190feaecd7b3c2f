package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"trapp/internal/obs"
	"trapp/internal/query"
)

// maxSpans caps the spans a run keeps in memory; the per-layer samples
// are taken from every span, kept or not.
const maxSpans = 200_000

// spanRec is one recorded span: a timed region at a layer boundary.
// Spans of one request share Req; Parent is the id of the span that
// caused it, or -1.
type spanRec struct {
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced run's spans in memory and the per-layer
// samples derived from them.
type recorder struct {
	t0 time.Time

	mu      sync.Mutex
	reqs    int64
	ids     int64
	spans   []spanRec
	dropped int64
	samples map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), samples: make(map[string][]float64)}
}

func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

func (r *recorder) get(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.samples[name]
}

func (r *recorder) newReq() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reqs++
	return r.reqs
}

// span records one span and returns its id.
func (r *recorder) span(req, parent int64, name string, start, end time.Time) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ids++
	if len(r.spans) >= maxSpans {
		r.dropped++
		return r.ids
	}
	r.spans = append(r.spans, spanRec{Req: req, ID: r.ids, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return r.ids
}

// request records one traced ExecuteCtx: the wrapper's own span, the
// engine's span tree under it, and the partition calls it made.
func (r *recorder) request(t0, t1 time.Time, res query.Result, calls []nodeCall) {
	req := r.newReq()
	root := r.span(req, -1, "engine.ExecuteCtx", t0, t1)
	r.add("refresh.tuples_per_query", float64(res.Refreshed))
	paying := 0.0
	if res.RefreshCost > 0 {
		paying = 1
	}
	r.add("refresh.paying_share", paying)

	if res.Trace != nil {
		snap := res.Trace.Snapshot()
		// The engine's trace starts inside the call and ends just before
		// it returns; anchor it at its end.
		anchor := t1.Add(-time.Duration(snap.Root.DurationNS))
		if anchor.Before(t0) {
			anchor = t0
		}
		r.engineSpans(req, root, anchor, snap.Root, res)
		if len(calls) == 0 {
			r.add("query.self_us", us(selfTime(snap.Root)))
		}
	}

	if len(calls) > 0 {
		ivs := make([][2]time.Time, len(calls))
		byOp := map[string][]time.Duration{}
		for i, c := range calls {
			ivs[i] = [2]time.Time{c.start, c.end}
			d := c.end.Sub(c.start)
			byOp[c.op] = append(byOp[c.op], d)
			r.add("partition."+c.op+"_us", us(d))
			r.span(req, root, "node:"+c.node+"."+c.op, c.start, c.end)
		}
		r.add("partition.calls_per_query", float64(len(calls)))
		r.add("coordinator.self_us", us(t1.Sub(t0)-covered(ivs)))
		for _, ds := range byOp {
			if len(ds) < 2 {
				continue
			}
			lo, hi := ds[0], ds[0]
			for _, d := range ds[1:] {
				lo, hi = min(lo, d), max(hi, d)
			}
			r.add("partition.straggler_us", us(hi-lo))
		}
	}
}

// engineSpans records the engine's span tree and the phase samples it
// carries.
func (r *recorder) engineSpans(req, parent int64, anchor time.Time, s obs.SpanSnapshot, res query.Result) {
	start := anchor.Add(time.Duration(s.StartNS))
	id := r.span(req, parent, s.Name, start, start.Add(time.Duration(s.DurationNS)))
	d := float64(s.DurationNS) / 1e3
	switch {
	case s.Name == "sync":
		r.add("query.sync_us", d)
	case s.Name == "scan":
		r.add("query.scan_us", d)
		var rows int
		if _, err := fmt.Sscanf(s.Detail, "rows=%d", &rows); err == nil {
			r.add("query.rows_per_scan", float64(rows))
		}
	case s.Name == "choose":
		r.add("query.choose_us", us(res.ChooseTime))
	case s.Name == "refresh":
		r.add("query.refresh_us", d)
	case s.Name == "wire_wait":
		r.add("refresh.wire_us", d)
	case s.Name == "commit":
		r.add("refresh.commit_us", d)
	case s.Name == "fold":
		r.add("query.fold_us", d)
	}
	for _, c := range s.Children {
		r.engineSpans(req, id, anchor, c, res)
	}
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s obs.SpanSnapshot) time.Duration {
	var base time.Time
	ivs := make([][2]time.Time, len(s.Children))
	for i, c := range s.Children {
		st := base.Add(time.Duration(c.StartNS))
		ivs[i] = [2]time.Time{st, st.Add(time.Duration(c.DurationNS))}
	}
	return max(0, time.Duration(s.DurationNS)-covered(ivs))
}

// covered is the length of the union of the intervals.
func covered(ivs [][2]time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var total time.Duration
	var curS, curE time.Time
	for i, iv := range ivs {
		if i == 0 || iv[0].After(curE) {
			if i > 0 {
				total += curE.Sub(curS)
			}
			curS, curE = iv[0], iv[1]
			continue
		}
		if iv[1].After(curE) {
			curE = iv[1]
		}
	}
	if len(ivs) > 0 {
		total += curE.Sub(curS)
	}
	return total
}

// dump writes the kept spans as JSON lines under the output directory.
func (r *recorder) dump(cfg config) error {
	dir := filepath.Join(cfg.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", strings.ReplaceAll(cfg.workload, "/", "_"), cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	spans, dropped := r.spans, r.dropped
	r.mu.Unlock()
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if dropped > 0 {
		fmt.Fprintf(bw, "{\"dropped_spans\": %d}\n", dropped)
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
