package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	satconj "repro"
	"repro/internal/model"
	"repro/internal/pool"
)

// screenOptions configures a workload's detector over a window. Workers
// equals GOMAXPROCS, which main sets to the CPU count.
func screenOptions(wl workload, window float64) satconj.Options {
	return satconj.Options{
		Variant:          wl.variant,
		ThresholdKm:      thresholdKm,
		DurationSeconds:  window,
		SecondsPerSample: wl.sps,
		Workers:          runtime.GOMAXPROCS(0),
	}
}

// shardPlan is the shard count the sharded detector derives for the
// workload's full window; the set-up's short warm-up screen pins it, since
// the model would plan fewer shards for the shorter span.
func shardPlan(wl workload, n int) int {
	return model.ShardCountForBudget(n, wl.window, thresholdKm, wl.sps, 0)
}

// setupBatch performs one cold set-up: population generation and an
// untimed warm-up screen over a tenth of the window, which sizes every
// pooled structure for the population. It returns the population and the
// generation and total set-up times.
func setupBatch(cfg runConfig) (sats []satconj.Satellite, planted []plantedProbe, gen, total time.Duration, err error) {
	resetHeap()
	t0 := time.Now()
	sats, planted, err = batchPopulation(cfg.wl, cfg.seed)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	gen = time.Since(t0)
	o := screenOptions(cfg.wl, cfg.wl.window/10)
	if cfg.wl.variant == satconj.VariantSharded {
		o.Shards = shardPlan(cfg.wl, len(sats))
	}
	if _, err := satconj.Screen(sats, o); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("warm-up screen: %w", err)
	}
	return sats, planted, gen, time.Since(t0), nil
}

// batchPopulation is the paper's KDE population with the planted
// encounters.
func batchPopulation(wl workload, seed uint64) ([]satconj.Satellite, []plantedProbe, error) {
	sats, err := satconj.GeneratePopulation(satconj.PopulationConfig{N: wl.objects, Seed: seed})
	if err != nil {
		return nil, nil, fmt.Errorf("generate population: %w", err)
	}
	return sats, plantEncounters(sats, seed, wl.window), nil
}

// runBatch runs a full-screen workload: set-ups, then screens back to back
// until the timed phase is over, each checked. A traced run traces every
// screen, then replays the layers for the per-layer metrics.
func runBatch(cfg runConfig) (*report, error) {
	wl := cfg.wl
	rep := newReport()
	steal := startSteal()

	var setups, gens []float64
	var sats []satconj.Satellite
	var planted []plantedProbe
	for i := 0; i < cfg.setups; i++ {
		s, p, gen, total, err := setupBatch(cfg)
		if err != nil {
			return nil, err
		}
		sats, planted = s, p
		gens = append(gens, gen.Seconds())
		setups = append(setups, total.Seconds())
	}
	ref, err := loadReference(wl.name, cfg.seed)
	if err != nil {
		return nil, err
	}
	byID := indexByID(sats)

	tr := newTracer()
	runtime.GC()
	pool0, rc0 := pool.Default.Stats(), readRuntimeCounters()
	hs := startHeapSampler()
	start := time.Now()
	var walls, cpus []float64
	tracedOps := 0
	var last *satconj.Result
	for i := 0; i < cfg.minOps || time.Since(start).Seconds() < cfg.seconds; i++ {
		runtime.GC()
		o := screenOptions(wl, wl.window)
		var root, trace uint64
		if cfg.trace {
			root, trace = tr.newID(), uint64(i+1)
			o.Observer = phaseObserver(tr, trace, root)
			o.ShardConcurrency = 1
		}
		c0, t0 := cpuNow(), time.Now()
		res, err := satconj.ScreenContext(context.Background(), sats, o)
		t1, c1 := time.Now(), cpuNow()
		if err != nil {
			hs.finish()
			return nil, fmt.Errorf("screen %d: %w", i, err)
		}
		if cfg.trace {
			tr.record(root, trace, 0, "screen", t0, t1)
			tracedOps++
			last = res
		} else {
			walls = append(walls, t1.Sub(t0).Seconds())
			cpus = append(cpus, (c1 - c0).Seconds())
		}
		if cfg.dropConjunction {
			res.Conjunctions = dropPair(res.Conjunctions, planted[0].sat.ID, planted[0].target)
		}
		rep.op(checkScreen(res, byID, thresholdKm, ref, planted))
	}
	peak := hs.finish()
	pool1, rc1 := pool.Default.Stats(), readRuntimeCounters()
	rep.reps = len(walls) + tracedOps

	if !cfg.trace {
		rep.steal = steal.share()
		rep.set("setup_s", median(setups), "s")
		rep.set("op_p50_ms", 1000*median(walls), "ms")
		rep.set("op_cpu_ms", 1000*median(cpus), "ms")
		rep.set("peak_heap_mib", peak, "MiB")
		rep.extra("op_min_ms", 1000*quantile(walls, 0), "ms")
		rep.extra("op_max_ms", 1000*quantile(walls, 1), "ms")
		return rep, nil
	}
	in := layerInput{
		wl: wl, sats: sats, byID: byID, res: last, rootName: "screen", spans: tr.all(),
		gens: gens, pool0: pool0, pool1: pool1, rc0: rc0, rc1: rc1, ops: rep.reps,
		traceCost: tr.overhead().Seconds(), buildDir: cfg.buildDir,
	}
	if err := perLayer(rep, in); err != nil {
		return nil, err
	}
	rep.steal = steal.share()
	rep.set("host.steal_share", rep.steal, "ratio")
	return rep, tr.write(cfg.tracePath)
}

// recordReference screens the workload once at its seed and writes the
// events as the reference set.
func recordReference(cfg runConfig, path string) error {
	if cfg.wl.service {
		return fmt.Errorf("%s checks its events against the deltas it makes; it has no reference set", cfg.wl.name)
	}
	sats, planted, err := batchPopulation(cfg.wl, cfg.seed)
	if err != nil {
		return err
	}
	res, err := satconj.Screen(sats, screenOptions(cfg.wl, cfg.wl.window))
	if err != nil {
		return err
	}
	if fails := checkScreen(res, indexByID(sats), thresholdKm, nil, planted); len(fails) > 0 {
		return fmt.Errorf("screen fails its own checks: %v", fails[0])
	}
	return writeReference(path, res)
}
