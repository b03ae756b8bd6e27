package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"

	satconj "repro"
	"repro/internal/lockfree"
	"repro/internal/pool"
	"repro/internal/propagation"
)

// Re-propagating a conjunction's pair at its TCA must reproduce its PCA
// within pcaTolKm. Refinement evaluates the same two-body propagator, so
// the only slack is the Kepler solver's round-off.
const pcaTolKm = 1e-3

// A reference event matches a reported one of the same pair whose TCA lies
// within refTCATolS. A fix that moves refined TCAs by more than this has
// changed the physics, not the speed.
const refTCATolS = 1.0

// referenceSeed is the seed the checked-in reference sets were recorded at.
const referenceSeed = 1

//go:embed ref
var refFiles embed.FS

// refEvent is one physical encounter of a reference set.
type refEvent struct {
	A   int32   `json:"a"`
	B   int32   `json:"b"`
	TCA float64 `json:"tca_s"`
	PCA float64 `json:"pca_km"`
}

func refName(workload string, seed uint64) string {
	return fmt.Sprintf("ref/%s-seed%d.json", workload, seed)
}

// loadReference returns the reference events of a workload at a seed, or
// nil when no reference was recorded for that seed.
func loadReference(workload string, seed uint64) ([]refEvent, error) {
	b, err := refFiles.ReadFile(refName(workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var evs []refEvent
	if err := json.Unmarshal(b, &evs); err != nil {
		return nil, fmt.Errorf("reference %s: %w", refName(workload, seed), err)
	}
	return evs, nil
}

// events collapses a result into one entry per physical encounter.
func events(res *satconj.Result) []refEvent {
	evs := res.Events(refTCATolS)
	out := make([]refEvent, len(evs))
	for i, c := range evs {
		out[i] = refEvent{A: c.A, B: c.B, TCA: c.TCA, PCA: c.PCA}
	}
	return out
}

// writeReference records a result's events as the reference set.
func writeReference(path string, res *satconj.Result) error {
	b, err := json.MarshalIndent(events(res), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checkScreen verifies one screen's output and returns the failed checks:
// every conjunction re-propagates to its PCA and lies within the threshold,
// every planted encounter and every reference event is present (extra
// events are allowed, so a fix that finds encounters the reference missed
// does not read as a failure), and the shared pool has every structure back.
func checkScreen(res *satconj.Result, byID map[int32]*propagation.Satellite, threshold float64, ref []refEvent, planted []plantedProbe) []string {
	var fails []string
	prop := propagation.TwoBody{}
	for _, c := range res.Conjunctions {
		a, b := byID[c.A], byID[c.B]
		if a == nil || b == nil {
			fails = append(fails, fmt.Sprintf("conjunction %d-%d names an unknown object", c.A, c.B))
			continue
		}
		pa, _ := prop.State(a, c.TCA)
		pb, _ := prop.State(b, c.TCA)
		d := pa.Dist(pb)
		if math.Abs(d-c.PCA) > pcaTolKm || c.PCA > threshold {
			fails = append(fails, fmt.Sprintf("conjunction %d-%d: pca %.6f km, re-propagated %.6f km, threshold %g km", c.A, c.B, c.PCA, d, threshold))
		}
	}
	got := map[uint64][]float64{}
	for _, c := range res.Conjunctions {
		k := c.PairKey()
		got[k] = append(got[k], c.TCA)
	}
	for _, p := range planted {
		ref = append(ref, refEvent{A: p.sat.ID, B: p.target, TCA: p.tMeet})
	}
	for _, e := range ref {
		found := false
		for _, tca := range got[pairKey(e.A, e.B)] {
			if math.Abs(tca-e.TCA) <= refTCATolS {
				found = true
				break
			}
		}
		if !found {
			fails = append(fails, fmt.Sprintf("expected event %d-%d at %.3f s missing", e.A, e.B, e.TCA))
		}
	}
	if out := pool.Default.Stats().Outstanding(); out != 0 {
		fails = append(fails, fmt.Sprintf("pool outstanding %d after screen", out))
	}
	return fails
}

// pairKey is the order-independent identity of a pair.
func pairKey(a, b int32) uint64 { return lockfree.PackPair(a, b, 0) }

// dropPair removes a pair's conjunctions: the planted fault of the
// benchmark's own tests.
func dropPair(cs []satconj.Conjunction, a, b int32) []satconj.Conjunction {
	out := cs[:0:0]
	for _, c := range cs {
		if pairKey(c.A, c.B) != pairKey(a, b) {
			out = append(out, c)
		}
	}
	return out
}

// indexByID maps satellite IDs to their entries in sats.
func indexByID(sats []satconj.Satellite) map[int32]*propagation.Satellite {
	m := make(map[int32]*propagation.Satellite, len(sats))
	for i := range sats {
		m[sats[i].ID] = &sats[i]
	}
	return m
}
