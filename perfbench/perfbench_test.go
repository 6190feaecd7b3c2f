package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func tinyConfig(t *testing.T, name string, trace bool) config {
	return config{workload: name, seed: 7, window: time.Second, trace: trace, out: t.TempDir(), tiny: true}
}

// benchmarkFile is BENCHMARK.json's metric lists.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// resultLine runs the report writer and decodes its last line.
func resultLine(t *testing.T, rep *report) map[string]struct {
	Value float64
	Unit  string
} {
	t.Helper()
	var sb strings.Builder
	if err := rep.write(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	var out struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if out.Attempted < 1 {
		t.Fatalf("attempted %d", out.Attempted)
	}
	return out.Metrics
}

// TestSmokeEveryWorkload runs every workload at a tiny size, untraced
// and traced, and checks the result line carries exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Work {
		names = append(names, w.Name)
	}
	if want := strings.Split(workloadNames(), ", "); !reflect.DeepEqual(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", name, trace), func(t *testing.T) {
				rep, err := run(tinyConfig(t, name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.correct() {
					t.Fatalf("%d violations: %v", rep.failed, rep.violations)
				}
				got := resultLine(t, rep)
				want := bf.EndToEnd
				if trace {
					want = bf.PerLayer
				}
				if len(got) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(got), len(want))
				}
				for _, m := range want {
					g, ok := got[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case g.Unit != m.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
					case !trace && g.Value <= 0 && m.Name != "refresh_cost_per_query":
						// A smoke run pays too few refreshes to be sure of
						// one; full-size runs always do.
						t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, g.Value)
					}
				}
			})
		}
	}
}

// generator is a workload's seeded input stream: drive sends only the
// queries and pushes drawn through these calls.
type generator interface {
	nextQuery() spec
	nextPush() (int, []float64)
}

func generatorOf(t *testing.T, ld load) generator {
	switch l := ld.(type) {
	case *serveLoad:
		return l.ls
	case *tightLoad:
		return l.ls
	case *clusterLoad:
		return l.ls
	case *scaleLoad:
		return l
	}
	t.Fatalf("no generator for %T", ld)
	return nil
}

// TestSeedReproducesInputs builds every workload and draws its query
// and push streams through the generator its drive loop uses: one seed
// must give the same streams, another seed different ones.
func TestSeedReproducesInputs(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			stream := func(seed int64) string {
				cfg := tinyConfig(t, wl.name, false)
				cfg.seed = seed
				ld, err := wl.build(&harness{cfg: cfg, rec: newRecorder()})
				if err != nil {
					t.Fatal(err)
				}
				defer ld.close()
				g := generatorOf(t, ld)
				var b strings.Builder
				for i := 0; i < 200; i++ {
					k, v := g.nextPush()
					fmt.Fprintf(&b, "%s\n%d %v\n", specString(g.nextQuery()), k, v)
				}
				return b.String()
			}
			a := stream(11)
			if a != stream(11) {
				t.Fatal("the same seed generated different inputs")
			}
			if a == stream(12) {
				t.Fatal("different seeds generated the same inputs")
			}
		})
	}
}

// specString renders a spec by value, predicate included.
func specString(s spec) string {
	where := "none"
	if s.where != nil {
		where = fmt.Sprintf("%+v", *s.where)
	}
	s.where = nil
	return fmt.Sprintf("%+v where=%s", s, where)
}

// TestShiftedAnswerTripsGate injects answers shifted off the truth
// through the engine wrapper: every workload's gate must catch it.
func TestShiftedAnswerTripsGate(t *testing.T) {
	for _, name := range strings.Split(workloadNames(), ", ") {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, name, false)
			cfg.fault.shift = 1e6
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.correct() || rep.failed == 0 {
				t.Fatal("shifted answers passed the correctness gate")
			}
			if !strings.Contains(strings.Join(rep.violations, "\n"), "does not contain the exact") {
				t.Fatalf("violations do not name containment: %v", rep.violations)
			}
		})
	}
}

// TestDelayNamesItsLayer injects a delay into the wrapped partition
// State calls: partition.state_us must move by about the delay, and the
// layers the delay is not in must stay where they were.
func TestDelayNamesItsLayer(t *testing.T) {
	const delay = 2 * time.Millisecond
	measure := func(d time.Duration) map[string]metric {
		cfg := tinyConfig(t, "cluster-scatter", true)
		cfg.fault.nodeDelay = d
		rep, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.correct() {
			t.Fatalf("violations: %v", rep.violations)
		}
		return rep.metrics
	}
	base, slow := measure(0), measure(delay)
	moved := slow["partition.state_us.p50"].value - base["partition.state_us.p50"].value
	if moved < 0.9*us(delay) {
		t.Errorf("partition.state_us.p50 moved %.0f us for a %v delay", moved, delay)
	}
	for _, name := range []string{"coordinator.self_us.p50", "source.push_us.p50", "partition.inputs_us.p50", "query.fold_us.p50"} {
		if d := slow[name].value - base[name].value; d > 0.25*us(delay) || d < -0.25*us(delay) {
			t.Errorf("%s moved %.0f us (%.1f → %.1f) though the delay is not in its layer",
				name, d, base[name].value, slow[name].value)
		}
	}
}
