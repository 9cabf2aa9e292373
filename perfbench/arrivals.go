package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"pricepower/internal/sim"
	"pricepower/internal/task"
)

// heldOutSeed is the arrival seed kept out of every tuning run: a speed
// claim made on fed-churn must also hold with --seed 20140301.
const heldOutSeed = 20140301

// arrivalModel is fed-churn's open loop: finite tasks arriving on a
// diurnal intensity in federation virtual time (one price-trace hour per
// virtual second), each with a uniform lifetime and demand.
type arrivalModel struct {
	meanRate  float64 // tasks per virtual second, averaged over a day
	amplitude float64 // relative diurnal swing of the rate
	peakHour  float64 // hour of the rate's maximum
	lifeMinS  float64
	lifeMaxS  float64
	demandMin float64 // PU on a LITTLE core at the target heart rate
	demandMax float64
	epochs    int
	epochDur  sim.Time
}

// churnArrivals peaks at 148 tasks/s × 2 s × 800 PU ≈ 237,000 PU of
// demand, several times one 8-board region's 43,200 PU at top V-F, so the
// cheapest region's admission queue fills while prices diverge.
var churnArrivals = arrivalModel{
	meanRate: 80, amplitude: 0.85, peakHour: 8,
	lifeMinS: 1, lifeMaxS: 3,
	demandMin: 400, demandMax: 1200,
	epochs: 60, epochDur: 400 * sim.Millisecond,
}

// rate is the arrival intensity at virtual second t.
func (m arrivalModel) rate(t float64) float64 {
	return m.meanRate * (1 + m.amplitude*math.Sin(2*math.Pi*(t-m.peakHour+6)/24))
}

// integral is ∫ rate over [a, b).
func (m arrivalModel) integral(a, b float64) float64 {
	w := 2 * math.Pi / 24
	c := func(t float64) float64 { return -math.Cos(w*(t-m.peakHour+6)) / w }
	return m.meanRate * ((b - a) + m.amplitude*(c(b)-c(a)))
}

// horizonS is the end of the last stepped epoch; arrivalEndS the end of
// the arrival trace, one epoch earlier, so that every arrival is due by
// the start of a stepped epoch and gets submitted inside the window.
func (m arrivalModel) horizonS() float64 { return float64(m.epochs) * m.epochDur.Seconds() }

func (m arrivalModel) arrivalEndS() float64 { return float64(m.epochs-1) * m.epochDur.Seconds() }

// arrival is one generated task.
type arrival struct {
	at       sim.Time
	life     sim.Time
	demandPU float64
}

// spec is the task the federation receives: one finite phase whose
// heartbeat cost asks for demandPU at the 27 hb/s target.
func (a arrival) spec() task.Spec {
	const minHR, maxHR = 24, 30
	return task.Spec{
		Name: "churn", Priority: 1, MinHR: minHR, MaxHR: maxHR,
		Phases: []task.Phase{{Duration: a.life, HBCostLittle: a.demandPU / ((minHR + maxHR) / 2), SpeedupBig: 2}},
	}
}

// generate draws the arrival trace for a seed. Each epoch receives the
// whole number of arrivals its share of the intensity integral calls for
// (a running carry keeps the total exact). Inside an epoch, arrival
// times, lifetimes and demands are stratified: each of the n arrivals
// draws from its own 1/n slice of each range, and the seed shuffles how
// the slices pair up. Every seed thus offers the same amount and spread
// of work; seeds differ in timing, pairing and order.
func (m arrivalModel) generate(seed uint64) []arrival {
	rng := sim.NewRand(seed)
	var out []arrival
	var carry float64
	step := m.epochDur.Seconds()
	for e := 0; e < m.epochs-1; e++ {
		a, b := float64(e)*step, float64(e+1)*step
		carry += m.integral(a, b)
		n := int(math.Floor(carry))
		carry -= float64(n)
		at := stratified(rng, n, a, b)
		life := stratified(rng, n, m.lifeMinS, m.lifeMaxS)
		demand := stratified(rng, n, m.demandMin, m.demandMax)
		shuffle(rng, life)
		shuffle(rng, demand)
		for i := 0; i < n; i++ {
			out = append(out, arrival{
				at:       sim.FromSeconds(at[i]),
				life:     sim.FromSeconds(life[i]),
				demandPU: demand[i],
			})
		}
	}
	return out
}

// stratified returns n ascending draws from [lo, hi), one uniform draw in
// each of n equal slices.
func stratified(rng *sim.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	w := (hi - lo) / float64(n)
	for i := range out {
		out[i] = lo + w*(float64(i)+rng.Float64())
	}
	return out
}

func shuffle(rng *sim.Rand, xs []float64) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// expectedLive is the live set at the horizon if finished tasks left and
// nothing queued: Little's law over the time-varying intensity,
// ∫ rate(T−x)·P(life > x) dx for uniform lifetimes, with no arrivals
// after the trace ends.
func (m arrivalModel) expectedLive() float64 {
	T := m.horizonS()
	const n = 4000
	dx := m.lifeMaxS / n
	var sum float64
	for i := 0; i < n; i++ {
		x := (float64(i) + 0.5) * dx
		if T-x >= m.arrivalEndS() {
			continue
		}
		surv := 1.0
		if x > m.lifeMinS {
			surv = (m.lifeMaxS - x) / (m.lifeMaxS - m.lifeMinS)
		}
		sum += m.rate(T-x) * surv * dx
	}
	return sum
}

// writeTraces stores the arrival traces of a run's realizations in one
// CSV, with the expected live set at the horizon.
func (m arrivalModel) writeTraces(path string, seed uint64, subs []uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# fed-churn arrivals seed=%d held_out_seed=%d realizations=%d horizon_s=%g expected_live_end=%.3f\n",
		seed, heldOutSeed, len(subs), m.horizonS(), m.expectedLive())
	fmt.Fprintln(w, "realization,at_s,life_s,demand_pu")
	for i, s := range subs {
		for _, a := range m.generate(s) {
			fmt.Fprintf(w, "%d,%.6f,%.6f,%.3f\n", i, a.at.Seconds(), a.life.Seconds(), a.demandPU)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
