package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	satconj "repro"
)

// span is one traced interval. Spans of one screen or one delta share a
// trace id; Parent is 0 for a root span. Times are nanoseconds since the
// run started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory; write dumps them when the run ends. cost
// is the time spent inside phase callbacks, the part of tracing that runs
// within a traced operation.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	next   uint64
	spans  []span
	cost   time.Duration
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newID reserves a span id, so a root span's children can name it before
// the root itself ends.
func (t *tracer) newID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved id.
func (t *tracer) record(id, trace, parent uint64, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
}

// add records a finished span under a fresh id and returns the id.
func (t *tracer) add(trace, parent uint64, name string, start, end time.Time) uint64 {
	id := t.newID()
	t.record(id, trace, parent, name, start, end)
	return id
}

// charge adds time spent tracing inside a traced operation.
func (t *tracer) charge(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cost += d
}

// overhead returns the time charged so far.
func (t *tracer) overhead() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cost
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfSeconds returns a span's duration minus the part its direct children
// cover (children of one parent do not overlap in this benchmark).
func selfSeconds(s span, spans []span) float64 {
	self := s.seconds()
	for _, c := range spans {
		if c.Parent == s.ID {
			self -= c.seconds()
		}
	}
	return self
}

// write dumps the spans, with each span's self time, as JSON to path.
func (t *tracer) write(path string) error {
	spans := t.all()
	type out struct {
		span
		SelfSeconds float64 `json:"self_s"`
	}
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{span: s, SelfSeconds: selfSeconds(s, spans)}
	}
	b, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// phaseObserver turns the pipeline's phase callbacks into child spans of
// one screen's root span. A phase reports its elapsed time when it ends, so
// the span runs from end−elapsed to end. The freeze phase is a component
// of the sample phase and becomes its child. Phases must not overlap in
// time, so a traced sharded screen runs one shard at a time
// (ShardConcurrency 1). Each callback charges its own duration to the
// tracer as tracing overhead.
func phaseObserver(t *tracer, trace, root uint64) satconj.Observer {
	var lastSample uint64
	return satconj.ObserverFuncs{Phase: func(p satconj.PhaseInfo) {
		end := time.Now()
		parent := root
		if p.Phase == satconj.PhaseFreeze {
			parent = lastSample
		}
		id := t.add(trace, parent, "core."+string(p.Phase), end.Add(-p.Elapsed), end)
		if p.Phase == satconj.PhaseSample {
			lastSample = id
		}
		t.charge(time.Since(end))
	}}
}

// corePhases are the top-level pipeline phases; their spans tile a screen.
var corePhases = []satconj.Phase{satconj.PhaseAllocate, satconj.PhaseSample, satconj.PhaseFilter, satconj.PhaseRefine}

// phaseSeconds sums, per trace, the seconds of each core phase span, and
// returns per phase the median over traces, the median share of the root
// span that the top-level phases cover, and the median root span.
func phaseSeconds(spans []span, rootName string) (perPhase map[satconj.Phase]float64, coverage, wall float64) {
	byTrace := map[uint64]map[string]float64{}
	roots := map[uint64]float64{}
	for _, s := range spans {
		if s.Name == rootName && s.Parent == 0 {
			roots[s.Trace] = s.seconds()
			continue
		}
		if byTrace[s.Trace] == nil {
			byTrace[s.Trace] = map[string]float64{}
		}
		byTrace[s.Trace][s.Name] += s.seconds()
	}
	perPhase = map[satconj.Phase]float64{}
	var covers, walls []float64
	for _, ph := range corePhases {
		var xs []float64
		for tr := range roots {
			xs = append(xs, byTrace[tr]["core."+string(ph)])
		}
		perPhase[ph] = median(xs)
	}
	for tr, w := range roots {
		tiled := 0.0
		for _, ph := range corePhases {
			tiled += byTrace[tr]["core."+string(ph)]
		}
		walls = append(walls, w)
		if w > 0 {
			covers = append(covers, tiled/w)
		}
	}
	return perPhase, median(covers), median(walls)
}

// rootSeconds sums the root spans of the given name.
func rootSeconds(spans []span, rootName string) float64 {
	total := 0.0
	for _, s := range spans {
		if s.Name == rootName && s.Parent == 0 {
			total += s.seconds()
		}
	}
	return total
}
