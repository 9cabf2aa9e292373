package main

import (
	"math"
	"strconv"

	"pricepower/internal/core"
	"pricepower/internal/exp"
	"pricepower/internal/federation"
	"pricepower/internal/fleet"
)

// digest folds simulated state into one FNV-1a word. Floats fold by their
// bit patterns, so any change to any simulated statistic changes the
// digest; wall-clock values never enter it.
type digest uint64

func newDigest() digest { return 0xcbf29ce484222325 }

func (d digest) word(w uint64) digest {
	for i := 0; i < 8; i++ {
		d ^= digest((w >> (8 * i)) & 0xff)
		d *= 0x100000001b3
	}
	return d
}

func (d digest) ints(vs ...int) digest {
	for _, v := range vs {
		d = d.word(uint64(v))
	}
	return d
}

func (d digest) floats(vs ...float64) digest {
	for _, v := range vs {
		d = d.word(math.Float64bits(v))
	}
	return d
}

func (d digest) str(s string) digest {
	d = d.ints(len(s))
	for i := 0; i < len(s); i++ {
		d ^= digest(s[i])
		d *= 0x100000001b3
	}
	return d
}

// runResult folds every field of one exp.RunResult. Heartbeats folds
// rounded to ten significant digits: metrics.Probe.HeartbeatsDelivered
// sums a map in iteration order, so its last bits vary between identical
// runs (a known defect of the probe, not of the simulation).
func (d digest) runResult(r exp.RunResult) digest {
	return d.str(r.Governor).str(r.Set).
		floats(r.MissFrac, r.AvgPower, r.Energy).
		ints(r.Migrations, r.CrossMigrations, r.Transitions).
		floats(r.PeakTempC).str(strconv.FormatFloat(r.Heartbeats, 'e', 9, 64))
}

// sameRun reports whether two runs agree bit for bit in every field but
// Heartbeats, which must agree to 1e-12 relative (see runResult).
func sameRun(a, b exp.RunResult) bool {
	ha, hb := a.Heartbeats, b.Heartbeats
	a.Heartbeats, b.Heartbeats = 0, 0
	return a == b && math.Abs(ha-hb) <= 1e-12*math.Max(math.Abs(ha), math.Abs(hb))
}

// market folds the full market state: chip, cluster, core and task agents.
func (d digest) market(m *core.Market) digest {
	d = d.ints(m.Round(), int(m.State())).floats(m.Allowance(), m.Power(), m.SmoothedPower())
	for _, v := range m.Clusters {
		d = d.ints(v.ID, v.TaskCount()).floats(v.Allowance(), v.SupplyPU())
		for _, c := range v.Cores {
			d = d.ints(c.ID, len(c.Tasks)).floats(c.Price(), c.BasePrice(), c.Allowance())
			for _, a := range c.Tasks {
				d = d.ints(a.ID, a.Priority).
					floats(a.Demand, a.Observed, a.Bid(), a.Allowance(), a.Savings(), a.Purchased())
			}
		}
	}
	return d
}

// fleetState folds a fleet's collected state: counters, ledger terms and
// every board's snapshot.
func (d digest) fleetState(st fleet.State) digest {
	c := st.Counters
	d = d.ints(st.Batch, st.Issued, int(st.Time), st.QueueLen, st.InFlight, st.Orphaned).
		word(c.Submitted).word(c.Routed).word(c.Queued).word(c.Shed).word(c.Evicted)
	for _, b := range st.Boards {
		d = d.ints(b.Board, b.Round, b.Tasks, int(b.Time)).str(b.State).
			floats(b.Price, b.PowerW, b.SmoothedW, b.DemandPU, b.SupplyPU)
	}
	return d
}

// federationState folds the federation's replay digest vector (controller
// plus every region) and its counters.
func (d digest) federationState(f *federation.Federation) digest {
	for _, w := range f.DigestVector() {
		d = d.word(w)
	}
	st := f.StateSnapshot()
	c := st.Counters
	return d.ints(st.Epoch, st.InTransit).
		word(c.Submitted).word(c.Migrations).word(c.MigratedTasks).word(c.Delivered)
}
