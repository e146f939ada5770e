package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/flowsim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// checkCDF rejects a CDF whose values decrease or that does not end at 1.
func checkCDF(pts []stats.Point) error {
	if len(pts) == 0 {
		return fmt.Errorf("empty CDF")
	}
	for i, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || p.Y < 0 || p.Y > 1 {
			return fmt.Errorf("CDF point %d is (%g, %g)", i, p.X, p.Y)
		}
		if i > 0 && (p.Y < pts[i-1].Y || p.X < pts[i-1].X) {
			return fmt.Errorf("CDF decreases at point %d: (%g, %g) after (%g, %g)", i, p.X, p.Y, pts[i-1].X, pts[i-1].Y)
		}
	}
	if last := pts[len(pts)-1].Y; math.Abs(last-1) > 1e-9 {
		return fmt.Errorf("CDF ends at %g, not 1", last)
	}
	return nil
}

// checkPoints rejects a series point that is not finite or is negative.
func checkPoints(pts []stats.Point) error {
	for i, p := range pts {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) || p.X < 0 || p.Y < 0 {
			return fmt.Errorf("point %d is (%g, %g)", i, p.X, p.Y)
		}
	}
	return nil
}

// certTol is the relative tolerance of the max-min certificate: the
// solver's rates are sums and quotients of link capacities, exact to a
// few ulps per flow.
const certTol = 1e-7

// checkMaxMin checks an allocation against the max-min fairness
// certificate (Bertsekas & Gallager, Data Networks, §6.5): no link
// carries more than its capacity, and every flow crosses a saturated link
// on which no flow has a higher (weight-normalized) rate. It reads only
// each flow's path, weight and rate and the link capacities, so it is
// independent of the solver that produced the rates.
func checkMaxMin(flows []*flowsim.Flow, links []topology.Link) error {
	load := make([]float64, len(links))
	top := make([]float64, len(links)) // highest normalized rate per link
	for _, f := range flows {
		if !(f.Rate >= 0) || math.IsInf(f.Rate, 0) {
			return fmt.Errorf("flow %d has rate %g", f.ID, f.Rate)
		}
		for _, l := range f.Path {
			load[l] += f.Rate
			top[l] = math.Max(top[l], f.Rate/weightOf(f))
		}
	}
	for l, c := range load {
		if c > links[l].Capacity*(1+certTol) {
			return fmt.Errorf("link %d carries %g b/s over its %g b/s capacity", l, c, links[l].Capacity)
		}
	}
	for _, f := range flows {
		bottleneck := false
		for _, l := range f.Path {
			if load[l] >= links[l].Capacity*(1-certTol) && f.Rate/weightOf(f) >= top[l]*(1-certTol) {
				bottleneck = true
				break
			}
		}
		if !bottleneck {
			return fmt.Errorf("flow %d (rate %g b/s) has no saturated link on which its rate is the highest", f.ID, f.Rate)
		}
	}
	return nil
}

func weightOf(f *flowsim.Flow) float64 {
	if f.Weight > 0 {
		return f.Weight
	}
	return 1
}

// checkFluidFloor rejects a completed flow faster than its size over the
// narrowest link on its path.
func checkFluidFloor(sizeBits, start, finish float64, path []topology.LinkID, links []topology.Link) error {
	narrowest := math.Inf(1)
	for _, l := range path {
		narrowest = math.Min(narrowest, links[l].Capacity)
	}
	floor := sizeBits / narrowest
	if !(finish-start >= floor*(1-1e-9)) {
		return fmt.Errorf("a %g-bit flow finished in %g s, under the %g s its narrowest link (%g b/s) needs",
			sizeBits, finish-start, floor, narrowest)
	}
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
