package main

import (
	"context"
	"sync"
	"time"

	"trapp/internal/aggregate"
	"trapp/internal/partition"
	"trapp/internal/query"
	"trapp/internal/server"
	"trapp/internal/source"
	"trapp/internal/sql"
	itrapp "trapp/internal/trapp"
)

// The wrappers below are the benchmark's only view of the program: they
// implement the two interfaces the program already accepts,
// server.Engine and partition.Node, forward every call unchanged, and
// while a window is traced time each call and keep the span tree the
// existing WithTrace option returns.

// engine wraps the server.Engine surface every workload queries
// through: an embedded System or the partition coordinator.
type engine struct {
	inner server.Engine
	h     *harness

	// keepExecs has traced ExecuteCtx durations kept in execs until the
	// serving client claims them, pairing them with its pipelined round
	// trips (one connection serves its requests in order).
	keepExecs bool
	mu        sync.Mutex
	execs     []time.Duration
}

// systemEngine adapts an embedded System to server.Engine.
type systemEngine struct{ *itrapp.System }

func (e systemEngine) SubscribeCtx(ctx context.Context, q query.Query) (server.Subscription, error) {
	return e.System.SubscribeCtx(ctx, q)
}

func (e *engine) Catalog() sql.Catalog { return e.inner.Catalog() }

func (e *engine) SubscribeCtx(ctx context.Context, q query.Query) (server.Subscription, error) {
	return e.inner.SubscribeCtx(ctx, q)
}

func (e *engine) ExecuteBatchDetailed(ctx context.Context, qs []query.Query, opts ...query.ExecOption) ([]query.Result, []error, error) {
	return e.inner.ExecuteBatchDetailed(ctx, qs, opts...)
}

func (e *engine) ExecuteCtx(ctx context.Context, q query.Query, opts ...query.ExecOption) (query.Result, error) {
	var res query.Result
	var err error
	if !e.h.tracing.Load() {
		res, err = e.inner.ExecuteCtx(ctx, q, opts...)
	} else {
		calls := &nodeCalls{}
		ctx = context.WithValue(ctx, nodeCallsKey{}, calls)
		opts = append(opts[:len(opts):len(opts)], query.WithTrace())
		t0 := time.Now()
		res, err = e.inner.ExecuteCtx(ctx, q, opts...)
		t1 := time.Now()
		e.h.rec.request(t0, t1, res, calls.take())
		// The framed wire cannot carry a trace; the span tree has been
		// recorded, so the caller sees the untraced result shape.
		res.Trace = nil
		if e.keepExecs {
			e.mu.Lock()
			e.execs = append(e.execs, t1.Sub(t0))
			e.mu.Unlock()
		}
	}
	if e.h.cfg.fault.shift != 0 {
		res.Answer.Lo += e.h.cfg.fault.shift
		res.Answer.Hi += e.h.cfg.fault.shift
	}
	return res, err
}

// takeExecs returns and clears the traced ExecuteCtx durations.
func (e *engine) takeExecs() []time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := e.execs
	e.execs = nil
	return out
}

// nodeCallsKey carries a traced request's nodeCalls through the
// coordinator's contexts to the wrapped partitions.
type nodeCallsKey struct{}

type nodeCall struct {
	op, node   string
	start, end time.Time
}

// nodeCalls collects the partition calls one request made; the
// coordinator scatters them on several goroutines.
type nodeCalls struct {
	mu    sync.Mutex
	calls []nodeCall
}

func (c *nodeCalls) add(nc nodeCall) {
	c.mu.Lock()
	c.calls = append(c.calls, nc)
	c.mu.Unlock()
}

func (c *nodeCalls) take() []nodeCall {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// node wraps one partition.Node.
type node struct {
	partition.Node
	h *harness
}

func (n *node) record(ctx context.Context, op string, t0 time.Time) {
	if calls, ok := ctx.Value(nodeCallsKey{}).(*nodeCalls); ok {
		calls.add(nodeCall{op: op, node: n.ID(), start: t0, end: time.Now()})
	}
}

func (n *node) State(ctx context.Context, shape string) (aggregate.State, error) {
	t0 := time.Now()
	if d := n.h.cfg.fault.nodeDelay; d > 0 {
		time.Sleep(d)
	}
	st, err := n.Node.State(ctx, shape)
	if !n.h.tracing.Load() {
		return st, err
	}
	n.record(ctx, "state", t0)
	if err == nil {
		// What this fold state would cost on the partition wire.
		c0 := time.Now()
		frame := partition.AppendStateResp(nil, 1, &st)
		_, _, _, derr := partition.DecodeStateResp(frame[4:])
		n.h.rec.add("partition.codec_us", us(time.Since(c0)))
		n.h.rec.add("partition.state_bytes", float64(len(frame)))
		if derr != nil {
			n.h.violate("partition state does not survive its own codec: %v", derr)
		}
	}
	return st, err
}

func (n *node) Inputs(ctx context.Context, shape string) ([]aggregate.Input, int, error) {
	t0 := time.Now()
	in, l, err := n.Node.Inputs(ctx, shape)
	if n.h.tracing.Load() {
		n.record(ctx, "inputs", t0)
	}
	return in, l, err
}

func (n *node) Refresh(ctx context.Context, shape string, keys []int64) (partition.RefreshOutcome, error) {
	t0 := time.Now()
	out, err := n.Node.Refresh(ctx, shape, keys)
	if n.h.tracing.Load() {
		n.record(ctx, "refresh", t0)
	}
	return out, err
}

// push applies one source update, timing its service while traced.
func (h *harness) push(src *source.Source, key int64, vals []float64) error {
	if !h.tracing.Load() {
		return src.SetValue(key, vals)
	}
	t0 := time.Now()
	err := src.SetValue(key, vals)
	t1 := time.Now()
	h.rec.add("source.push_us", us(t1.Sub(t0)))
	h.rec.span(h.rec.newReq(), -1, "source.SetValue", t0, t1)
	return err
}
