package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	satconj "repro"
	"repro/internal/catalog"
	"repro/internal/httpapi"
	"repro/internal/pool"
	"repro/internal/store"
)

// eventTimeout bounds the wait for a delta's SSE event; a delta pass at
// 8k objects takes well under a second.
const eventTimeout = 20 * time.Second

// replayedPasses is how many of a traced run's delta passes are replayed
// through ScreenDelta with the phase observer.
const replayedPasses = 10

// serviceRig is one in-process service: catalogue, store, handler and the
// rescreener goroutine. Requests go straight to Handler.ServeHTTP.
type serviceRig struct {
	sats   []satconj.Satellite
	dir    string
	st     *store.Store
	h      *httpapi.Handler
	resc   *httpapi.Rescreener
	cancel context.CancelFunc
	done   chan struct{}
}

// setupService builds the service and waits for the rescreener's first
// full pass, which is the set-up's warm-up screen.
func setupService(cfg runConfig) (rig *serviceRig, gen, total time.Duration, err error) {
	resetHeap()
	t0 := time.Now()
	sats, err := satconj.GeneratePopulation(satconj.PopulationConfig{N: cfg.wl.objects, Seed: cfg.seed})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("generate population: %w", err)
	}
	gen = time.Since(t0)
	cat, err := catalog.New(sats, catalogEpoch, catalog.Options{})
	if err != nil {
		return nil, 0, 0, err
	}
	tmp := filepath.Join(cfg.buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, 0, 0, err
	}
	dir, err := os.MkdirTemp(tmp, "service-store-")
	if err != nil {
		return nil, 0, 0, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, 0, err
	}
	h := httpapi.NewServer(httpapi.Config{Catalog: cat, Store: st, MaxObjects: len(sats) + 1})
	// The hour-long interval leaves nudges as the only trigger of a pass.
	resc := httpapi.NewRescreener(h, screenOptions(cfg.wl, cfg.wl.window), time.Hour, nil)
	ctx, cancel := context.WithCancel(context.Background())
	rig = &serviceRig{sats: sats, dir: dir, st: st, h: h, resc: resc, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(rig.done)
		_ = resc.Run(ctx) // returns ctx.Err() once close cancels it
	}()
	deadline := time.Now().Add(time.Minute)
	for h.Snapshot() == nil {
		if time.Now().After(deadline) {
			rig.close()
			return nil, 0, 0, errors.New("service: first rescreen pass did not publish within a minute")
		}
		time.Sleep(time.Millisecond)
	}
	return rig, gen, time.Since(t0), nil
}

// close stops the rescreener, waits for it, drains the hub and removes the
// store.
func (r *serviceRig) close() {
	r.cancel()
	<-r.done
	r.h.Drain()
	r.st.Close()
	os.RemoveAll(r.dir)
}

// sseEvent is one conjunction event as the subscriber received it.
type sseEvent struct {
	ev httpapi.SubscribeEventJSON
	at time.Time
}

// sseWriter is the subscriber's end of an in-process SSE response: the
// handler's writes go into a pipe the client goroutine parses.
type sseWriter struct {
	hdr http.Header
	w   *io.PipeWriter
}

func (w *sseWriter) Header() http.Header         { return w.hdr }
func (w *sseWriter) WriteHeader(int)             {}
func (w *sseWriter) Write(b []byte) (int, error) { return w.w.Write(b) }
func (w *sseWriter) Flush()                      {}

// sseClient holds one GET /v1/subscribe stream open.
type sseClient struct {
	events  chan sseEvent
	hello   chan struct{}
	cancel  context.CancelFunc
	handler chan struct{}
	reader  chan struct{}
}

// subscribe opens an SSE stream for object. withhold drops every event of
// the first catalogue version that sends one (a planted fault for the
// tests: a delta can yield an event per sampling step that saw it).
func subscribe(h http.Handler, object int32, withhold bool) *sseClient {
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	c := &sseClient{
		// Buffered so the parser never stalls the handler while the delta
		// loop is between waits; a delta yields one or two events.
		events: make(chan sseEvent, 256),
		hello:  make(chan struct{}), cancel: cancel,
		handler: make(chan struct{}), reader: make(chan struct{}),
	}
	req := mustRequest(http.MethodGet, fmt.Sprintf("/v1/subscribe?object=%d&max_km=%g", object, thresholdKm), nil).WithContext(ctx)
	go func() {
		defer close(c.handler)
		h.ServeHTTP(&sseWriter{hdr: http.Header{}, w: pw}, req)
		pw.Close()
	}()
	go func() {
		defer close(c.reader)
		sc := bufio.NewScanner(pr)
		var event string
		var dropVersion uint64
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				at := time.Now()
				switch event {
				case "hello":
					close(c.hello)
				case "conjunction":
					var ev httpapi.SubscribeEventJSON
					if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) != nil {
						continue
					}
					if withhold && (dropVersion == 0 || ev.Version == dropVersion) {
						dropVersion = ev.Version
						continue
					}
					select {
					case c.events <- sseEvent{ev: ev, at: at}:
					case <-ctx.Done():
					}
				}
			}
		}
		// Drain whatever the handler still writes until it closes the pipe.
		_, _ = io.Copy(io.Discard, pr)
	}()
	return c
}

func (c *sseClient) close() {
	c.cancel()
	<-c.handler
	<-c.reader
}

// waitEvent returns the probe's event for a catalogue version, skipping
// events of earlier versions and of other pairs.
func (c *sseClient) waitEvent(version uint64, p plantedProbe, wait time.Duration) (sseEvent, bool) {
	timeout := time.NewTimer(wait)
	defer timeout.Stop()
	for {
		select {
		case e := <-c.events:
			ev := e.ev
			pair := (ev.A == p.sat.ID && ev.B == p.target) || (ev.B == p.sat.ID && ev.A == p.target)
			if pair && ev.Version >= version {
				return e, true
			}
		case <-timeout.C:
			return sseEvent{}, false
		}
	}
}

// readStats collects the paced reader's measurements.
type readStats struct {
	latency, service, lateness []float64 // microseconds
	attempted, failed          int
	failures                   []string
}

// readLoop issues reads at a fixed rate until stop closes: nine in ten
// revalidate the last ETag with If-None-Match, one in ten fetches the page.
// Each read is timed from when it was due, so a stall charges the reads
// queued behind it too. Every answer must be 200 (or 304 to a
// revalidation) carrying the ETag of the snapshot current before or after
// the read.
func readLoop(h *httpapi.Handler, rate float64, stop <-chan struct{}) readStats {
	var rs readStats
	interval := time.Duration(float64(time.Second) / rate)
	etag := ""
	start := time.Now()
	for k := 0; ; k++ {
		select {
		case <-stop:
			return rs
		default:
		}
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		full := etag == "" || k%10 == 0
		req := mustRequest(http.MethodGet, "/v1/conjunctions?limit=100", nil)
		if !full {
			req.Header.Set("If-None-Match", etag)
		}
		w := newRecorder()
		sent := time.Now()
		before := h.Snapshot()
		h.ServeHTTP(w, req)
		after := h.Snapshot()
		done := time.Now()
		got := w.hdr.Get("Etag")
		rs.attempted++
		okStatus := w.status == http.StatusOK || (w.status == http.StatusNotModified && !full)
		if !okStatus || (got != before.ETag && got != after.ETag) {
			rs.failed++
			if len(rs.failures) < 5 {
				rs.failures = append(rs.failures, fmt.Sprintf("read %d: status %d, etag %s (current %s)", k, w.status, got, after.ETag))
			}
		} else if w.status == http.StatusOK {
			etag = got
		}
		rs.latency = append(rs.latency, float64(done.Sub(due).Nanoseconds())/1e3)
		rs.service = append(rs.service, float64(done.Sub(sent).Nanoseconds())/1e3)
		rs.lateness = append(rs.lateness, float64(sent.Sub(due).Nanoseconds())/1e3)
	}
}

// runService drives the service workload: closed-loop probe deltas, one in
// flight, each timed from its POST to the probe's SSE event, while a paced
// reader revalidates the conjunction snapshot.
func runService(cfg runConfig) (*report, error) {
	wl := cfg.wl
	rep := newReport()
	steal := startSteal()

	var setups, gens []float64
	var rig *serviceRig
	for i := 0; i < cfg.setups; i++ {
		if rig != nil {
			rig.close()
		}
		r, gen, total, err := setupService(cfg)
		if err != nil {
			return nil, err
		}
		rig = r
		gens = append(gens, gen.Seconds())
		setups = append(setups, total.Seconds())
	}
	defer rig.close()
	h := rig.h
	sub := subscribe(h, probeID, cfg.withholdEvent)
	defer sub.close()
	select {
	case <-sub.hello:
	case <-time.After(cfg.eventTimeout):
		return nil, errors.New("service: subscription sent no hello")
	}

	tr := newTracer()
	gen := newProbeGen(cfg.seed, rig.sats, wl.window)
	var probes []plantedProbe
	runtime.GC()
	pool0, rc0 := pool.Default.Stats(), readRuntimeCounters()
	hs := startHeapSampler()
	stopReads := make(chan struct{})
	readsDone := make(chan readStats, 1)
	go func() { readsDone <- readLoop(h, cfg.readRate, stopReads) }()

	start := time.Now()
	var lat, cpus, tracedLat, posts, rescreens, deliveries []float64
	delivered := 0
	for i := 0; i < cfg.minOps || time.Since(start).Seconds() < cfg.seconds; i++ {
		p := gen.next(probeID)
		probes = append(probes, p)
		// Marshalling plain numbers cannot fail; a NaN element would, and
		// the handler then answers 400, which the status check reports.
		body, _ := json.Marshal(httpapi.DeltaRequest{Updates: []httpapi.ElementsJSON{p.json()}})
		w := newRecorder()
		c0, t0 := cpuNow(), time.Now()
		h.ServeHTTP(w, mustRequest(http.MethodPost, "/v1/catalog/delta", bytes.NewReader(body)))
		tPost := time.Now()
		var resp httpapi.DeltaResponse
		if w.status != http.StatusOK || json.Unmarshal([]byte(w.body.String()), &resp) != nil {
			rep.op([]string{fmt.Sprintf("delta %d: status %d: %s", i, w.status, w.body.String())})
			continue
		}
		rig.resc.Nudge()
		e, ok := sub.waitEvent(resp.Version, p, cfg.eventTimeout)
		c1 := cpuNow()
		var fails []string
		if !ok {
			fails = append(fails, fmt.Sprintf("delta %d (version %d): no event for pair %d-%d within %s", i, resp.Version, p.sat.ID, p.target, cfg.eventTimeout))
		} else {
			delivered++
			if e.ev.PCA > thresholdKm || e.ev.TCA < p.tMeet-refTCATolS || e.ev.TCA > p.tMeet+refTCATolS {
				fails = append(fails, fmt.Sprintf("delta %d: event pca %.4f km at %.3f s, planted %.3f s", i, e.ev.PCA, e.ev.TCA, p.tMeet))
			}
		}
		if out := pool.Default.Stats().Outstanding(); out != 0 {
			fails = append(fails, fmt.Sprintf("delta %d: pool outstanding %d after the pass", i, out))
		}
		rep.op(fails)
		if !ok {
			continue
		}
		ms := float64(e.at.Sub(t0).Nanoseconds()) / 1e6
		posts = append(posts, float64(tPost.Sub(t0).Nanoseconds())/1e3)
		if cfg.trace {
			tracedLat = append(tracedLat, ms)
			trace := uint64(i + 1)
			root := tr.newID()
			tr.add(trace, root, "httpapi.delta_post", t0, tPost)
			if snap := h.Snapshot(); snap != nil && snap.Version == e.ev.Version {
				tr.add(trace, root, "rescreen", tPost, snap.ProducedAt)
				tr.add(trace, root, "serve.deliver", snap.ProducedAt, e.at)
				rescreens = append(rescreens, float64(snap.ProducedAt.Sub(tPost).Nanoseconds())/1e6)
				deliveries = append(deliveries, float64(e.at.Sub(snap.ProducedAt).Nanoseconds())/1e3)
			}
			tr.record(root, trace, 0, "delta", t0, e.at)
			continue
		}
		lat = append(lat, ms)
		cpus = append(cpus, float64((c1-c0).Nanoseconds())/1e6)
	}
	close(stopReads)
	rs := <-readsDone
	peak := hs.finish()
	pool1, rc1 := pool.Default.Stats(), readRuntimeCounters()
	rep.reps = len(lat) + len(tracedLat)
	rep.attempted += rs.attempted
	rep.failed += rs.failed
	rep.failures = append(rep.failures, rs.failures...)

	rep.extra("deltas", float64(rep.reps), "count")
	rep.extra("reads", float64(rs.attempted), "count")
	rep.extra("delta_to_event_p90_ms", quantile(append(lat, tracedLat...), 0.9), "ms")
	rep.extra("read_p50_us", median(rs.latency), "us")
	rep.extra("read_p99_us", quantile(rs.latency, 0.99), "us")
	rep.extra("httpapi.read_service_us_p50", median(rs.service), "us")
	rep.extra("httpapi.read_lateness_us_p99", quantile(rs.lateness, 0.99), "us")
	if !cfg.trace {
		rep.steal = steal.share()
		rep.set("setup_s", median(setups), "s")
		rep.set("op_p50_ms", median(lat), "ms")
		rep.set("op_cpu_ms", median(cpus), "ms")
		rep.set("peak_heap_mib", peak, "MiB")
		return rep, nil
	}
	rep.extra("httpapi.rescreen_ms", median(rescreens), "ms")
	rep.extra("serve.event_delivery_us", median(deliveries), "us")
	rep.extra("serve.events_delivered", float64(delivered), "count")
	rep.extra("serve.events_dropped", float64(len(probes)-delivered), "count")

	res, err := replayPasses(cfg, rig.sats, probes, tr)
	if err != nil {
		return nil, err
	}
	in := layerInput{
		wl: wl, sats: rig.sats, byID: indexByID(rig.sats), res: res, rootName: "pass", spans: tr.all(),
		gens: gens, pool0: pool0, pool1: pool1, rc0: rc0, rc1: rc1, ops: rep.reps,
		traceCost: tr.overhead().Seconds(), postUs: posts, buildDir: cfg.buildDir,
	}
	if err := perLayer(rep, in); err != nil {
		return nil, err
	}
	rep.steal = steal.share()
	rep.set("host.steal_share", rep.steal, "ratio")
	return rep, tr.write(cfg.tracePath)
}

// replayPasses re-runs the rescreener's chain outside the service, with the
// phase observer attached: a full screen of the initial catalogue, then the
// first delta passes, each ScreenDelta over the probe's new orbit with the
// previous pass's conjunctions as prior. It returns the last pass.
func replayPasses(cfg runConfig, initial []satconj.Satellite, probes []plantedProbe, tr *tracer) (*satconj.Result, error) {
	sats := append([]satconj.Satellite(nil), initial...)
	o := screenOptions(cfg.wl, cfg.wl.window)
	res, err := satconj.ScreenContext(context.Background(), sats, o)
	if err != nil {
		return nil, err
	}
	idx := -1
	for i := range sats {
		if sats[i].ID == probeID {
			idx = i
		}
	}
	if len(probes) > replayedPasses {
		probes = probes[:replayedPasses]
	}
	for k, p := range probes {
		sats[idx] = p.sat
		trace := uint64(1_000_000 + k)
		root := tr.newID()
		o.Observer = phaseObserver(tr, trace, root)
		t0 := time.Now()
		next, err := satconj.ScreenDeltaContext(context.Background(), sats, o,
			satconj.DeltaInput{Prior: res.Conjunctions, Dirty: []int32{probeID}})
		tr.record(root, trace, 0, "pass", t0, time.Now())
		if err != nil {
			return nil, err
		}
		res = next
	}
	return res, nil
}
