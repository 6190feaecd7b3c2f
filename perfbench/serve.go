package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"trapp/internal/cache"
	"trapp/internal/experiment"
	"trapp/internal/netsim"
	"trapp/internal/query"
	"trapp/internal/relation"
	"trapp/internal/server"
	"trapp/internal/sql"
	itrapp "trapp/internal/trapp"
	"trapp/internal/workload"
)

// serve-durable: the links system served by an in-process server over
// its framed listener on loopback, its table on a durable cache (WAL,
// group commit, fresh directory). One pipelined connection sends the
// mix while one open-loop updater pushes; after the window the
// directory is closed and reopened.

const (
	servePipeline = 16
	serveChecks   = 24
)

// 500 pushes a second, one every 2 ms, and twenty ticks a second. An
// escaping push waits for its own fsync, so the rate leaves room for a
// disk several times slower than one with 0.2 ms fsyncs before the
// generator falls behind.
var serveLoop = openLoop{batch: 1, period: 2 * time.Millisecond, tickEvery: 25}

var walOptions = relation.WALOptions{Sync: relation.SyncGroup}

type serveLoad struct {
	h    *harness
	dir  string
	sys  *itrapp.System
	eng  *engine
	srv  *server.Server
	ls   *linkSet
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	id   uint32
	rbuf []byte
	wbuf []byte

	vrng   *rand.Rand
	closed bool
}

func buildServe(h *harness) (load, error) {
	dir, err := h.scratch("wal-")
	if err != nil {
		return nil, err
	}
	l := &serveLoad{h: h, dir: dir}
	links := linksFor(h.cfg)
	sys, netw, _, err := experiment.BuildLinkSystemDurable(links, linkSources, h.cfg.seed, dir, walOptions)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	l.sys = sys
	l.ls = newLinkSet(netw, sys.MountedCache(linkTable).Schema(), h.cfg.seed, func(rng *rand.Rand, links int) spec {
		return linkMix(rng, links, 0.01, 0.01)
	})
	store := sys.MountedCache(linkTable).Store()
	for i := range netw.Links {
		l.ls.srcs[i] = sys.Source(fmt.Sprintf("s%d", i%linkSources))
		l.ls.stores[i] = store
	}
	l.ls.wal = sys.MountedCache(linkTable).WAL()
	l.eng = &engine{inner: systemEngine{sys}, h: h, keepExecs: true}
	l.srv = server.NewEngine(l.eng, server.Config{})
	ln, err := l.srv.ListenAndServeFramed("127.0.0.1:0")
	if err != nil {
		l.close()
		return nil, err
	}
	if l.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		l.close()
		return nil, err
	}
	l.br = bufio.NewReaderSize(l.conn, 1<<16)
	l.bw = bufio.NewWriterSize(l.conn, 1<<16)
	l.vrng = rand.New(rand.NewSource(h.cfg.seed + 3))
	return l, nil
}

func (l *serveLoad) drive(d time.Duration, w *window) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveLoop.run(l.h, d, w, &l.ls.pushed, func() error { return l.ls.push(l.h) },
			func() { l.sys.Clock.Advance(1) })
	}()
	l.client(d, w)
	wg.Wait()
}

// client sends the mix in pipelined bursts: a burst of servePipeline
// requests is written and flushed, then its responses are read. Each
// query's latency runs from the burst's send to its own response.
func (l *serveLoad) client(d time.Duration, w *window) {
	h := l.h
	end := time.Now().Add(d)
	specs := make([]spec, servePipeline)
	reqs := make([]server.QueryRequest, servePipeline)
	for time.Now().Before(end) {
		traced := h.tracing.Load()
		for i := range specs {
			specs[i] = l.ls.nextQuery()
			reqs[i] = specs[i].request(l.ls.schema)
			if traced {
				t0 := time.Now()
				if _, err := sql.ParseAll(reqs[i].SQL, l.sys.Catalog()); err != nil {
					h.violate("sql: %v", err)
				}
				h.rec.add("sql.parse_us", us(time.Since(t0)))
			}
		}
		t0 := time.Now()
		sent, err := l.send(reqs)
		if err != nil {
			h.violate("framed send: %v", err)
			return
		}
		got := 0
		for i := range specs {
			res, rerr, n, err := l.recv()
			if err != nil {
				h.violate("framed receive: %v", err)
				return
			}
			got += n
			w.qlat = append(w.qlat, us(time.Since(t0)))
			w.queries++
			w.cost += res.RefreshCost
			if h.contract(specs[i], res, rerr) {
				if r, ok := budgetRatio(specs[i], res); ok {
					w.budget = append(w.budget, r)
				}
			}
		}
		if traced {
			rtt := time.Since(t0)
			execs := l.eng.takeExecs()
			if len(execs) == servePipeline {
				for _, e := range execs {
					rtt -= e
				}
				h.rec.add("server.self_us", us(rtt)/servePipeline)
			}
			h.rec.add("server.bytes_per_query", float64(sent+got)/servePipeline)
		}
	}
}

// send writes one burst of request frames and returns its byte count.
func (l *serveLoad) send(reqs []server.QueryRequest) (int, error) {
	n := 0
	for _, req := range reqs {
		l.id++
		out, err := server.AppendRequest(l.wbuf[:0], l.id, req)
		if err != nil {
			return n, err
		}
		l.wbuf = out
		if _, err := l.bw.Write(out); err != nil {
			return n, err
		}
		n += len(out)
	}
	return n, l.bw.Flush()
}

// recv reads one response frame: the single statement's result, its
// typed outcome, and the frame's byte count.
func (l *serveLoad) recv() (res query.Result, outcome error, n int, err error) {
	payload, err := server.ReadFrame(l.br, &l.rbuf)
	if err != nil {
		return res, nil, 0, err
	}
	_, resp, ferr := server.DecodeResponse(payload)
	if ferr != nil {
		return res, nil, 0, ferr
	}
	n = len(payload) + 4
	if resp.Error != nil {
		return res, server.DecodeError(resp.Error), n, nil
	}
	if len(resp.Results) != 1 {
		return res, fmt.Errorf("framed: %d results for one statement", len(resp.Results)), n, nil
	}
	wr := resp.Results[0]
	return wr.Result(), server.DecodeError(wr.Error), n, nil
}

func (l *serveLoad) verify() {
	l.ls.verify(l.h, l.vrng, serveChecks, func(s spec) (query.Result, error) {
		if _, err := l.send([]server.QueryRequest{s.request(l.ls.schema)}); err != nil {
			return query.Result{}, err
		}
		res, outcome, _, err := l.recv()
		if err != nil {
			return res, err
		}
		return res, outcome
	})
}

func (l *serveLoad) counters(c counters) {
	addEngineCounters(c, l.sys)
	c["wal_gen"] = float64(l.sys.MountedCache(linkTable).WAL().Gen())
}

// finish closes the durable system and reopens its directory: recovery
// is timed, and the recovered values must digest equal to the live ones.
func (l *serveLoad) finish() error {
	want := l.sys.MountedCache(linkTable).Store().ValueDigest()
	l.shutdown()
	err := l.sys.CloseDurable()
	l.sys = nil
	if err != nil {
		return fmt.Errorf("close durable system: %w", err)
	}
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		c, rec, err := cache.OpenDurable("monitor", netsim.NewClock(), workload.LinkSchema(), l.dir, walOptions)
		if err != nil {
			return fmt.Errorf("reopen %s: %w", l.dir, err)
		}
		l.h.rec.add("wal.recovery_s", time.Since(t0).Seconds())
		l.h.rec.add("wal.records_replayed", float64(rec.RecordsReplayed))
		l.h.attempted.Add(1)
		if got := c.Store().ValueDigest(); got != want {
			l.h.violate("value digest %x after reopen, %x before close", got, want)
		}
		if err := c.CloseWAL(); err != nil {
			return fmt.Errorf("close reopened WAL: %w", err)
		}
	}
	return nil
}

func (l *serveLoad) shutdown() {
	if l.conn != nil {
		_ = l.conn.Close()
		l.conn = nil
	}
	if l.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = l.srv.Shutdown(ctx)
		cancel()
		l.srv = nil
	}
}

func (l *serveLoad) close() {
	if l.closed {
		return
	}
	l.closed = true
	l.shutdown()
	if l.sys != nil {
		_ = l.sys.CloseDurable()
	}
	_ = os.RemoveAll(l.dir)
}
