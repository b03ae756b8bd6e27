package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// phaseTolerance is how far the traced phase spans of a screen may fall
// short of, or exceed, its traced wall time. The gap is work no phase
// reports: the hybrid variant's candidate collection between its sample
// and filter phases, the result's assembly and the pool release; it shows
// as the root span's self time. Full-size screens leave under 1%
// uncovered; the test-size hybrid screen under the race detector leaves
// 6% to 12%.
const phaseTolerance = 0.15

// tiny shrinks a workload to test size: 1,024 objects over a fifth of its
// window, one set-up, and a timed phase of three operations. A traced run
// traces them all; the phase coverage is their median, which one poorly
// tiled screen moves less than it moves the mean of two.
func tiny(t *testing.T, name string, trace bool) runConfig {
	t.Helper()
	wl, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	wl.objects = 1024
	wl.window /= 5
	dir := t.TempDir()
	return runConfig{
		wl: wl, seed: 3, seconds: 0.1, trace: trace, setups: 1, minOps: 3,
		readRate: 200, eventTimeout: 3 * time.Second,
		buildDir: dir, tracePath: filepath.Join(dir, "trace.json"),
	}
}

// runTiny runs a configuration and returns its printed output, the parsed
// JSON line and whether the run passed its checks.
func runTiny(t *testing.T, cfg runConfig) (string, resultLine, bool) {
	t.Helper()
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.wl.name, err)
	}
	var buf bytes.Buffer
	ok := printReport(&buf, envelope{Workload: cfg.wl.name}, rep)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", cfg.wl.name, err)
	}
	return buf.String(), res, ok
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDeclared(t *testing.T) (endToEnd, perLayer []declared) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
		Work     []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Work) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(spec.Work), len(workloads))
	}
	for _, w := range spec.Work {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %s is unknown to the command", w.Name)
		}
	}
	return spec.EndToEnd, spec.PerLayer
}

// TestEveryMetricPrintedWithUnit runs each workload plain and traced and
// requires the JSON line to carry exactly the declared metrics with their
// units, each also printed on its own line.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	endToEnd, perLayer := loadDeclared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			out, res, ok := runTiny(t, tiny(t, w.name, trace))
			if !ok || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, found := res.Metrics[d.Name]
				switch {
				case !found:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s in %s, declared %s", w.name, trace, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, d.Name, m.Value)
				case !strings.Contains(out, "metric "+d.Name+" "):
					t.Errorf("%s trace=%v: metric %s not printed", w.name, trace, d.Name)
				}
			}
		}
	}
}

// TestDroppedConjunctionFails plants a screen that loses one encounter.
func TestDroppedConjunctionFails(t *testing.T) {
	cfg := tiny(t, "grid-32k", false)
	cfg.dropConjunction = true
	out, res, ok := runTiny(t, cfg)
	if ok || res.Correct || res.Failed == 0 {
		t.Fatalf("a dropped conjunction went unnoticed:\n%s", out)
	}
	if !strings.Contains(out, "missing") {
		t.Errorf("failure does not name the missing event:\n%s", out)
	}
}

// TestWithheldEventFails plants a subscriber that never sees one delta's
// event.
func TestWithheldEventFails(t *testing.T) {
	cfg := tiny(t, "service-8k", false)
	cfg.withholdEvent = true
	out, res, ok := runTiny(t, cfg)
	if ok || res.Correct || res.Failed == 0 {
		t.Fatalf("a withheld SSE event went unnoticed:\n%s", out)
	}
	if !strings.Contains(out, "no event") {
		t.Errorf("failure does not name the lost event:\n%s", out)
	}
}

// maxTraceOverhead is the most of a traced wall the phase callbacks may
// take. A screen reports a handful of phases, each a few microseconds.
const maxTraceOverhead = 0.05

// TestTracedPhasesTileWall requires the traced phase spans of a screen to
// add up to its traced wall time, the callbacks' own time to be measured
// and small, and the span file to be written.
func TestTracedPhasesTileWall(t *testing.T) {
	for _, name := range []string{"grid-32k", "hybrid-32k", "sharded-131k", "service-8k"} {
		cfg := tiny(t, name, true)
		_, res, _ := runTiny(t, cfg)
		cov := res.Metrics["trace.phase_coverage"].Value
		t.Logf("%s: phase spans cover %.3f of the traced wall", name, cov)
		if math.Abs(cov-1) > phaseTolerance {
			t.Errorf("%s: phase spans cover %.3f of the traced wall, want 1 ± %.2f", name, cov, phaseTolerance)
		}
		if o := res.Metrics["trace.overhead_share"].Value; o <= 0 || o > maxTraceOverhead {
			t.Errorf("%s: tracing overhead share %.3g, want in (0, %.2f]", name, o, maxTraceOverhead)
		}
		b, err := os.ReadFile(cfg.tracePath)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var spans []span
		if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
			t.Fatalf("%s: span file unreadable or empty: %v", name, err)
		}
	}
}

// TestTracedCountsRepeat requires the screen's counters to repeat exactly
// between two traced runs at one seed.
func TestTracedCountsRepeat(t *testing.T) {
	counts := []string{"core.steps", "core.candidate_pairs", "core.filter_rejected", "refine.prefilter_rejected", "refine.brent_searches", "core.conjunctions"}
	for _, name := range []string{"hybrid-32k", "service-8k"} {
		_, a, _ := runTiny(t, tiny(t, name, true))
		_, b, _ := runTiny(t, tiny(t, name, true))
		for _, c := range counts {
			if a.Metrics[c] != b.Metrics[c] {
				t.Errorf("%s: %s read %v then %v", name, c, a.Metrics[c].Value, b.Metrics[c].Value)
			}
		}
	}
}
