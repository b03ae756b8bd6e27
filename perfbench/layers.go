package main

// Per-layer metrics of a traced run. Each replay calls one layer's public
// API directly, on the run's own population and results, and times it from
// the benchmark's side: no span is recorded inside the program. README.md
// maps each metric to the end-to-end metric it should move.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	satconj "repro"
	"repro/internal/band"
	"repro/internal/brent"
	"repro/internal/catalog"
	"repro/internal/filters"
	"repro/internal/httpapi"
	"repro/internal/lockfree"
	"repro/internal/pool"
	"repro/internal/propagation"
	"repro/internal/serve"
	"repro/internal/spatial"
	"repro/internal/store"
	"repro/internal/vec3"
)

// Replay sizes: enough work per replay for a steady per-item time, small
// enough that a traced run stays within its time budget at 131k objects.
const (
	propObjectSteps = 2_000_000 // propagation replay
	gridObjectSteps = 1_000_000 // insert/freeze/probe replay
	maxReplayPairs  = 200_000   // unique candidate pairs kept for the filter replay
	maxBrentPairs   = 2_000     // refined pairs replayed through Brent
	layerReps       = 20        // repetitions of the small service-side replays
)

// replaySink keeps replayed results live so the compiler cannot drop the
// work being timed.
var replaySink int

// catalogEpoch anchors the benchmark's catalogues; any fixed instant works.
var catalogEpoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// layerInput is what a traced run hands to the layer replays.
type layerInput struct {
	wl       workload
	sats     []satconj.Satellite
	byID     map[int32]*propagation.Satellite
	res      *satconj.Result // a traced screen (batch) or replayed pass (service)
	rootName string
	spans    []span
	gens     []float64 // population generation seconds per set-up

	pool0, pool1 pool.Stats
	rc0, rc1     runtimeCounters
	ops          int

	traceCost float64   // seconds spent in phase callbacks during traced operations
	postUs    []float64 // live POST spans (service); nil = replay
	buildDir  string
}

func perLayer(rep *report, in layerInput) error {
	wl, sats, res := in.wl, in.sats, in.res
	rep.set("population.gen_s", median(in.gens), "s")

	phases, coverage, wall := phaseSeconds(in.spans, in.rootName)
	rep.set("core.allocate_s", phases[satconj.PhaseAllocate], "s")
	rep.set("core.sample_s", phases[satconj.PhaseSample], "s")
	rep.set("core.refine_s", phases[satconj.PhaseRefine], "s")
	// Only the hybrid variant has a filter phase; the share reads 0 on the
	// other workloads (README.md lists the metrics that read 0 by design).
	rep.set("core.filter_share", phases[satconj.PhaseFilter]/wall, "ratio")
	rep.set("trace.phase_coverage", coverage, "ratio")
	if w := rootSeconds(in.spans, in.rootName); w > 0 {
		rep.set("trace.overhead_share", in.traceCost/w, "ratio")
	}

	st := res.Stats
	conj := float64(len(res.Conjunctions))
	rep.set("core.steps", float64(st.Steps), "count")
	rep.set("core.candidate_pairs", float64(st.CandidatePairs), "count")
	rep.set("core.candidates_per_conjunction", float64(st.CandidatePairs)/math.Max(conj, 1), "ratio")
	rep.set("core.pairset_growths", float64(st.PairSetGrowths), "count")
	// Detectors without sharding report 0 shards; they screen one band.
	rep.set("core.shards", math.Max(float64(st.Shards), 1), "count")
	rep.set("core.filter_rejected", float64(st.FilterRejected), "count")
	rep.set("core.conjunctions", conj, "count")
	rep.set("refine.prefilter_rejected", float64(st.PrefilterRejected), "count")
	rep.set("refine.brent_searches", float64(st.Refinements), "count")
	rep.set("refine.conjunctions_per_search", conj/math.Max(float64(st.Refinements), 1), "ratio")

	objSteps, nsPerStep := replayPropagation(sats, wl)
	rep.set("propagation.object_steps", objSteps, "count")
	rep.set("propagation.ns_per_object_step", nsPerStep, "ns")

	g, err := replayGrid(sats, wl)
	if err != nil {
		return err
	}
	rep.set("lockfree.insert_ns_per_object", g.insertNs, "ns")
	rep.set("lockfree.probes_per_insert", g.probesPerInsert, "ratio")
	rep.set("lockfree.freeze_ms_per_step", g.freezeMs, "ms")
	rep.set("lockfree.cells_per_step", g.cellsPerStep, "count")
	rep.set("lockfree.cell_probe_ns", g.cellProbeNs, "ns")

	classifyNs, rejected := replayFilters(g.pairs, in.byID)
	rep.set("filters.classify_ns_per_pair", classifyNs, "ns")
	rep.set("filters.rejected_share", rejected, "ratio")

	rep.set("brent.ns_per_search", replayBrent(res, in.byID, wl.window), "ns")

	partMs, residents := replayBand(sats, wl)
	rep.set("band.partition_ms", partMs, "ms")
	rep.set("band.residents_per_object", residents, "ratio")

	gets := float64(in.pool1.Gets - in.pool0.Gets)
	rep.set("pool.hit_share", float64(in.pool1.Hits-in.pool0.Hits)/math.Max(gets, 1), "ratio")
	ops := math.Max(float64(in.ops), 1)
	rep.set("runtime.alloc_mib_per_rep", float64(in.rc1.allocBytes-in.rc0.allocBytes)/(1<<20)/ops, "MiB")
	rep.set("runtime.gc_cycles_per_rep", float64(in.rc1.gcCycles-in.rc0.gcCycles)/ops, "count")

	applyUs, dirty, err := replayCatalog(sats, wl)
	if err != nil {
		return err
	}
	postUs := median(in.postUs)
	if in.postUs == nil {
		if postUs, err = replayPost(sats, wl); err != nil {
			return err
		}
	}
	rep.set("catalog.apply_delta_us", applyUs, "us")
	rep.set("catalog.dirty_objects", dirty, "count")
	rep.set("httpapi.delta_post_us", postUs, "us")

	buildUs, publishUs := replayServe(res, len(sats))
	rep.set("serve.snapshot_build_us", buildUs, "us")
	rep.set("serve.publish_us", publishUs, "us")

	appendMs, bytesPerPass, err := replayStore(res, wl, len(sats), in.buildDir)
	if err != nil {
		return err
	}
	rep.set("store.append_ms", appendMs, "ms")
	rep.set("store.bytes_per_pass", bytesPerPass, "bytes")
	return nil
}

// stepsOf is the number of samples covering the workload's window.
func stepsOf(wl workload) int { return int(math.Floor(wl.window/wl.sps)) + 1 }

// replaySteps spreads n replayed sampling steps evenly over the window.
func replaySteps(wl workload, objects, budget int) []int {
	steps := stepsOf(wl)
	n := budget / objects
	if n < 2 {
		n = 2
	}
	if n > steps {
		n = steps
	}
	out := make([]int, n)
	for k := range out {
		out[k] = k * steps / n
	}
	return out
}

// replayPropagation propagates the population over consecutive sampling
// steps with the warm-started two-body solve, chained step to step as the
// detectors chain it.
func replayPropagation(sats []satconj.Satellite, wl workload) (objectSteps, nsPer float64) {
	n := propObjectSteps / len(sats)
	if n < 2 {
		n = 2
	}
	if s := stepsOf(wl); n > s {
		n = s
	}
	prop := propagation.TwoBody{}
	kc := make([]propagation.KeplerCache, len(sats))
	for i := range sats {
		dm := sats[i].MeanMotion() * wl.sps
		kc[i] = propagation.KeplerCache{E: sats[i].Elements.MeanAnomaly - dm, DeltaM: dm}
	}
	acc := 0.0
	t0 := time.Now()
	for k := 0; k < n; k++ {
		t := float64(k) * wl.sps
		for i := range sats {
			pos, _, e := prop.StateWarm(&sats[i], t, kc[i].E+kc[i].DeltaM)
			kc[i].E = e
			acc += pos.X
		}
	}
	el := time.Since(t0)
	replaySink += int(math.Float64bits(acc) & 1)
	objectSteps = float64(n * len(sats))
	return objectSteps, float64(el.Nanoseconds()) / objectSteps
}

type gridReplay struct {
	insertNs, probesPerInsert, freezeMs, cellsPerStep, cellProbeNs float64
	pairs                                                          []uint64
}

// replayGrid rebuilds the detector's grid at spread-out sampling steps:
// key computation and lock-free insertion, the CSR freeze, and the 13
// half-neighbour cell lookups per occupied cell that the scan performs. It
// also collects the unique candidate pairs those cells produce.
func replayGrid(sats []satconj.Satellite, wl workload) (gridReplay, error) {
	var out gridReplay
	cell := spatial.CellSize(thresholdKm, wl.sps)
	maxApogee := 0.0
	for i := range sats {
		maxApogee = math.Max(maxApogee, sats[i].Elements.ApogeeRadius())
	}
	grid, err := spatial.NewGrid(cell, spatial.RequiredHalfExtent(maxApogee, cell))
	if err != nil {
		return out, err
	}
	n := len(sats)
	gs := lockfree.NewGridSet(2*n, n)
	snap := lockfree.NewGridSnapshot(gs.Slots(), n)
	pos := make([]vec3.V, n)
	prop := propagation.TwoBody{}
	seen := map[uint64]struct{}{}
	var insertT, freezeT, probeT time.Duration
	var inserts, probes, cells, lookups, found int
	steps := replaySteps(wl, n, gridObjectSteps)
	var nb [26]uint64
	for _, step := range steps {
		t := float64(step) * wl.sps
		for i := range sats {
			pos[i], _ = prop.State(&sats[i], t)
		}
		gs.Reset()
		t0 := time.Now()
		for i := range sats {
			key, ok := grid.KeyOf(pos[i])
			if !ok {
				continue
			}
			if err := gs.Insert(key, int32(i), sats[i].ID, pos[i]); err != nil {
				return out, fmt.Errorf("grid replay insert: %w", err)
			}
		}
		insertT += time.Since(t0)
		st := gs.Stats()
		inserts += int(st.Inserts)
		probes += int(st.Probes)
		cells += st.OccupiedSlot

		t0 = time.Now()
		snap.Freeze(gs, runtime.GOMAXPROCS(0))
		freezeT += time.Since(t0)

		t0 = time.Now()
		for s := 0; s < snap.Slots(); s++ {
			key, ids := snap.SlotCell(s)
			if key == lockfree.EmptySlot || len(ids) == 0 {
				continue
			}
			for _, nk := range halfNeighbors(grid, key, nb[:0]) {
				found += len(snap.CellByKey(nk))
				lookups++
			}
		}
		probeT += time.Since(t0)

		for s := 0; s < snap.Slots() && len(seen) < maxReplayPairs; s++ {
			key, ids := snap.SlotCell(s)
			if key == lockfree.EmptySlot || len(ids) == 0 {
				continue
			}
			for i := range ids {
				for j := i + 1; j < len(ids); j++ {
					seen[lockfree.PackPair(ids[i], ids[j], 0)] = struct{}{}
				}
			}
			for _, nk := range halfNeighbors(grid, key, nb[:0]) {
				for _, nid := range snap.CellByKey(nk) {
					for _, id := range ids {
						seen[lockfree.PackPair(id, nid, 0)] = struct{}{}
					}
				}
			}
		}
	}
	replaySink += found
	k := float64(len(steps))
	out.insertNs = float64(insertT.Nanoseconds()) / math.Max(float64(inserts), 1)
	out.probesPerInsert = float64(probes) / math.Max(float64(inserts), 1)
	out.freezeMs = float64(freezeT.Nanoseconds()) / 1e6 / k
	out.cellsPerStep = float64(cells) / k
	out.cellProbeNs = float64(probeT.Nanoseconds()) / math.Max(float64(lookups), 1)
	out.pairs = make([]uint64, 0, len(seen))
	for p := range seen {
		out.pairs = append(out.pairs, p)
	}
	return out, nil
}

// halfNeighbors returns the 13 half-neighbourhood keys of a cell the way
// the scan resolves them: key arithmetic for interior cells, the clamped
// path at the cube faces.
func halfNeighbors(grid *spatial.Grid, key uint64, dst []uint64) []uint64 {
	if c := spatial.UnpackKey(key); !grid.Interior(c) {
		return grid.HalfNeighborKeys(c, dst)
	}
	return spatial.HalfNeighborKeysInterior(key, dst)
}

// replayFilters classifies the unique candidate pairs with the orbital
// filter chain the hybrid variant runs.
func replayFilters(pairs []uint64, byID map[int32]*propagation.Satellite) (nsPerPair, rejectedShare float64) {
	fc := filters.Config{}.WithThreshold(thresholdKm)
	var st filters.Stats
	t0 := time.Now()
	for _, k := range pairs {
		p := lockfree.UnpackPair(k)
		st.Add(filters.Classify(byID[p.A].Elements, byID[p.B].Elements, fc))
	}
	el := time.Since(t0)
	if st.Pairs == 0 {
		return 0, 0
	}
	return float64(el.Nanoseconds()) / float64(st.Pairs), float64(st.ApogeePerigeeR+st.PathR) / float64(st.Pairs)
}

// replayBrent re-minimises each refined pair's squared two-body distance
// around its TCA, with the refiner's tolerance.
func replayBrent(res *satconj.Result, byID map[int32]*propagation.Satellite, window float64) float64 {
	prop := propagation.TwoBody{}
	evs := res.Events(refTCATolS)
	if len(evs) > maxBrentPairs {
		evs = evs[:maxBrentPairs]
	}
	if len(evs) == 0 {
		return 0
	}
	t0 := time.Now()
	for _, c := range evs {
		a, b := byID[c.A], byID[c.B]
		f := func(t float64) float64 {
			pa, _ := prop.State(a, t)
			pb, _ := prop.State(b, t)
			return pa.Dist2(pb)
		}
		_, _ = brent.Minimize(f, math.Max(0, c.TCA-2), math.Min(window, c.TCA+2), 1e-4, 100)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(evs))
}

// replayBand partitions the population into the shard plan's radial bands
// and reports the time and the band residents per object: 1 plus the share
// of objects duplicated into a second band as halo.
func replayBand(sats []satconj.Satellite, wl workload) (ms, residentsPerObject float64) {
	shards := shardPlan(wl, len(sats))
	if shards < 1 {
		shards = 1
	}
	var times []float64
	var asn *band.Assignment
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		asn = band.Partition(sats, shards, thresholdKm/2+1e-9)
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	resident := 0
	for _, c := range asn.ResidentCounts() {
		resident += c
	}
	return median(times), float64(resident) / float64(len(sats))
}

// replayCatalog applies probe deltas to a catalogue of the population.
func replayCatalog(sats []satconj.Satellite, wl workload) (applyUs, dirty float64, err error) {
	cat, err := catalog.New(sats, catalogEpoch, catalog.Options{})
	if err != nil {
		return 0, 0, err
	}
	gen := newProbeGen(1, sats, wl.window)
	var applies []float64
	for k := 0; k < layerReps; k++ {
		p := gen.next(probeID)
		t0 := time.Now()
		rev, err := cat.ApplyDelta(catalog.Delta{Updates: []satconj.Satellite{p.sat}})
		applies = append(applies, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return 0, 0, err
		}
		if d, _, ok := cat.DirtyBetween(rev.Version()-1, rev.Version()); ok {
			dirty += float64(len(d))
		}
	}
	return median(applies), dirty / layerReps, nil
}

// replayPost posts probe deltas to a catalogue-only server over the
// population: the delta handler without a rescreener behind it.
func replayPost(sats []satconj.Satellite, wl workload) (postUs float64, err error) {
	cat, err := catalog.New(sats, catalogEpoch, catalog.Options{})
	if err != nil {
		return 0, err
	}
	h := httpapi.NewServer(httpapi.Config{Catalog: cat, MaxObjects: len(sats) + 1})
	gen := newProbeGen(1, sats, wl.window)
	var posts []float64
	for k := 0; k < layerReps; k++ {
		body, err := json.Marshal(httpapi.DeltaRequest{Updates: []httpapi.ElementsJSON{gen.next(probeID).json()}})
		if err != nil {
			return 0, err
		}
		w := newRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, mustRequest(http.MethodPost, "/v1/catalog/delta", bytes.NewReader(body)))
		posts = append(posts, float64(time.Since(t0).Nanoseconds())/1e3)
		if w.status != http.StatusOK {
			return 0, fmt.Errorf("delta replay: status %d: %s", w.status, w.body.String())
		}
	}
	return median(posts), nil
}

// replayServe builds snapshots of the result and publishes them to a hub
// with one subscriber, the service workload's subscriber count.
func replayServe(res *satconj.Result, objects int) (buildUs, publishUs float64) {
	var builds, publishes []float64
	snaps := [2]*serve.Snapshot{}
	for k := 0; k < layerReps; k++ {
		t0 := time.Now()
		snaps[k%2] = serve.NewSnapshot(uint64(k+1), catalogEpoch, time.Now(), objects, false, res.Conjunctions)
		builds = append(builds, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	empty := serve.NewSnapshot(0, catalogEpoch, time.Now(), objects, false, nil)
	hub := serve.NewHub(serve.HubConfig{})
	defer hub.Close()
	var object int32
	if len(res.Conjunctions) > 0 {
		object = res.Conjunctions[0].A
	}
	sub, err := hub.Subscribe(object, 0)
	if err != nil {
		return median(builds), 0
	}
	defer sub.Close()
	for k := 0; k < layerReps; k++ {
		hub.Publish(empty)
		t0 := time.Now()
		hub.Publish(snaps[k%2])
		publishes = append(publishes, float64(time.Since(t0).Nanoseconds())/1e3)
		for drained := false; !drained; {
			select {
			case <-sub.Events():
			default:
				drained = true
			}
		}
	}
	return median(builds), median(publishes)
}

// replayStore appends the result as a run to a scratch store.
func replayStore(res *satconj.Result, wl workload, objects int, buildDir string) (appendMs, bytesPerPass float64, err error) {
	tmp := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp(tmp, "store-replay-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	const passes = 5
	var times []float64
	for k := 0; k < passes; k++ {
		t0 := time.Now()
		_, err := st.Append(store.Run{
			CatalogVersion: uint64(k + 1), StartedAt: t0.UTC(), ThresholdKm: thresholdKm,
			Duration: wl.window, Objects: objects, Variant: string(wl.variant), Conjunctions: res.Conjunctions,
		})
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			return 0, 0, fmt.Errorf("store replay: %w", err)
		}
	}
	fi, err := os.Stat(st.Path())
	if err != nil {
		return 0, 0, err
	}
	return median(times), float64(fi.Size()) / passes, nil
}
