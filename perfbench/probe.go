package main

import (
	"io"
	"math"
	"net/http"
	"strings"

	satconj "repro"
	"repro/internal/httpapi"
	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/propagation"
	"repro/internal/vec3"
)

// probeID is the catalogue object every service delta moves. Batch
// populations plant their encounters on objects 1..plantedEncounters.
const (
	probeID           int32 = 0
	plantedEncounters       = 16
)

// maxTargetSpeed keeps targets below the 7.8 km/s Eq. 1 assumes, so the
// grid is guaranteed to see every planted encounter.
const maxTargetSpeed = 7.6

// plantedProbe is one delta's probe: the probe object's new orbit, the
// target it meets and when.
type plantedProbe struct {
	sat    satconj.Satellite
	target int32
	tMeet  float64
}

// probeGen plants encounters deterministically from a seed.
type probeGen struct {
	rng    *mathx.SplitMix64
	sats   []satconj.Satellite
	window float64
}

func newProbeGen(seed uint64, sats []satconj.Satellite, window float64) *probeGen {
	return &probeGen{rng: mathx.NewSplitMix64(seed ^ 0x9E3779B97F4A7C15), sats: sats, window: window}
}

// next returns a probe orbit that passes through a target's position at a
// time inside the middle two thirds of the window: the target's orbit
// rotated about the position vector at that instant, which keeps the
// position (and the orbit's size and shape) and turns the velocity by a
// crossing angle of 20° to 160°.
func (g *probeGen) next(id int32) plantedProbe {
	prop := propagation.TwoBody{}
	for {
		j := int(g.rng.Float64() * float64(len(g.sats)))
		if j >= len(g.sats) || g.sats[j].ID <= plantedEncounters {
			continue
		}
		tMeet := g.window/6 + g.rng.Float64()*g.window*2/3
		theta := (20 + 140*g.rng.Float64()) * math.Pi / 180
		pos, vel := prop.State(&g.sats[j], tMeet)
		if vel.Norm() > maxTargetSpeed {
			continue
		}
		el, err := orbit.FromStateVector(pos, rotate(vel, pos.Unit(), theta))
		if err != nil {
			continue
		}
		el.MeanAnomaly = math.Mod(el.MeanAnomaly-el.MeanMotion()*tMeet, 2*math.Pi)
		if el.MeanAnomaly < 0 {
			el.MeanAnomaly += 2 * math.Pi
		}
		sat, err := satconj.NewSatellite(id, el)
		if err != nil {
			continue
		}
		return plantedProbe{sat: sat, target: g.sats[j].ID, tMeet: tMeet}
	}
}

// plantEncounters moves objects 1..plantedEncounters onto orbits that meet
// other objects inside the window, so every screen at every seed has known
// encounters it must report.
func plantEncounters(sats []satconj.Satellite, seed uint64, window float64) []plantedProbe {
	gen := newProbeGen(seed+1, sats, window)
	var out []plantedProbe
	for i := range sats {
		if id := sats[i].ID; id >= 1 && id <= plantedEncounters {
			p := gen.next(id)
			sats[i] = p.sat
			out = append(out, p)
		}
	}
	return out
}

// rotate turns v about the unit axis k by theta (Rodrigues' formula).
func rotate(v, k vec3.V, theta float64) vec3.V {
	s, c := math.Sincos(theta)
	return v.Scale(c).Add(k.Cross(v).Scale(s)).Add(k.Scale(k.Dot(v) * (1 - c)))
}

func (p plantedProbe) json() httpapi.ElementsJSON {
	el := p.sat.Elements
	return httpapi.ElementsJSON{
		ID: p.sat.ID, SemiMajorAxis: el.SemiMajorAxis, Eccentricity: el.Eccentricity,
		Inclination: el.Inclination, RAAN: el.RAAN, ArgPerigee: el.ArgPerigee, MeanAnomaly: el.MeanAnomaly,
	}
}

// recorder is a minimal in-process http.ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	body   strings.Builder
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}} }

func (w *recorder) Header() http.Header { return w.hdr }
func (w *recorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *recorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

// mustRequest builds an in-process request; the arguments are constants of
// this package, so a failure is a bug.
func mustRequest(method, target string, body io.Reader) *http.Request {
	r, err := http.NewRequest(method, target, body)
	if err != nil {
		panic(err)
	}
	return r
}
