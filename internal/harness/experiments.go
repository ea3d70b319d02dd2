package harness

import (
	"fmt"
	"time"

	"tpal/internal/bench"
	"tpal/internal/sched"
	"tpal/internal/stats"
)

// Experiment is one regenerable artifact of the paper's evaluation.
type Experiment struct {
	ID    string
	Title string
	Run   func(s *Session)
}

// Experiments returns every experiment in figure order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig6", "Task creation overheads, single core (Figure 6)", fig6},
		{"fig7", "Speedup over serial at full scale, Cilk vs TPAL/Linux (Figure 7)", fig7},
		{"fig8", "TPAL sans heartbeat interrupts, single core (Figure 8)", fig8},
		{"fig9", "Interrupt and promotion overheads on Linux, single core (Figure 9)", fig9},
		{"fig10", "Achieved vs target heartbeat rate (Figure 10)", fig10},
		{"fig11", "Speedup curves over core counts (Figure 11)", fig11},
		{"fig13", "Interrupt and promotion overheads on Nautilus, single core (Figure 13)", fig13},
		{"fig14", "Speedups at scale: Cilk, TPAL/Linux, TPAL/Nautilus (Figure 14)", fig14},
		{"fig15a", "Number of created tasks (Figure 15a)", fig15a},
		{"fig15b", "Utilization (Figure 15b)", fig15b},
		{"headline", "Headline geomeans from Section 4", headline},
		{"mechs", "Mechanism comparison: ping thread, PAPI, Nautilus, software polling (extension)", mechs},
		{"vtime", "Projection validation: simulated greedy schedule vs analytic bound (extension)", vtimeExp},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

const defaultHB = 100 * time.Microsecond
const fastHB = 20 * time.Microsecond

// kindGeo folds normalized values into per-kind geomean rows.
type kindGeo struct {
	it, rec []float64
}

func (g *kindGeo) add(b bench.Benchmark, v float64) {
	if b.Kind() == bench.Recursive {
		g.rec = append(g.rec, v)
	} else {
		g.it = append(g.it, v)
	}
}

func (g *kindGeo) geomeans() (float64, float64) {
	return stats.Geomean(g.it), stats.Geomean(g.rec)
}

// fig6: single-core execution time of Cilk and TPAL (both mechanisms)
// normalized to the serial program. The paper's claim: TPAL ≈ 1.0
// everywhere, Cilk pays eager task-creation costs, dramatically so on
// fine-grained benchmarks.
func fig6(s *Session) {
	t := newTable("benchmark", "Cilk/Linux", "TPAL 100us/Linux", "TPAL 100us/Nautilus")
	var gc, gl, gn kindGeo
	for _, b := range s.Benchmarks() {
		cst := s.Cilk(b)
		lst := s.Heartbeat(b, MechLinux, defaultHB, true)
		nst := s.Heartbeat(b, MechNautilus, defaultHB, true)
		serial := s.Serial(b).Seconds() // after parallel reps: median over interleaved samples
		c := cst.Elapsed.Seconds() / serial
		l := lst.Elapsed.Seconds() / serial
		n := nst.Elapsed.Seconds() / serial
		gc.add(b, c)
		gl.add(b, l)
		gn.add(b, n)
		t.addRow(b.Name(), f2(c), f2(l), f2(n))
	}
	ci, cr := gc.geomeans()
	li, lr := gl.geomeans()
	ni, nr := gn.geomeans()
	t.addRow("geomean-iterative", f2(ci), f2(li), f2(ni))
	t.addRow("geomean-recursive", f2(cr), f2(lr), f2(nr))
	s.printf("%s\nExecution time normalized to serial (1.00 = no overhead); single core.\n\n", t.render())
}

// speedupAt projects a measured run to p cores: serial time over the
// greedy-scheduler bound T₁/p + T∞.
func speedupAt(serial time.Duration, c sched.Cost, p int) float64 {
	tp := c.ProjectedTime(p)
	if tp <= 0 {
		return 0
	}
	return serial.Seconds() / tp.Seconds()
}

// fig7: speedups over serial at the full simulated machine, Cilk vs
// TPAL with the Linux mechanism model.
func fig7(s *Session) {
	p := s.opt.Cores
	t := newTable("benchmark", "Cilk/Linux", "TPAL 100us/Linux")
	var gc, gl kindGeo
	for _, b := range s.Benchmarks() {
		cst := s.Cilk(b)
		hst := s.Heartbeat(b, MechLinux, defaultHB, true)
		serial := s.Serial(b)
		c := speedupAt(serial, cst.Cost, p)
		l := speedupAt(serial, hst.Cost, p)
		gc.add(b, c)
		gl.add(b, l)
		t.addRow(b.Name(), f1(c), f1(l))
	}
	ci, cr := gc.geomeans()
	li, lr := gl.geomeans()
	t.addRow("geomean-iterative", f1(ci), f1(li))
	t.addRow("geomean-recursive", f1(cr), f1(lr))
	s.printf("%s\nSpeedup over serial at %d cores (projected from instrumented single-core runs\nvia T_P = T1/P + Tinf).\n\n", t.render(), p)
}

// fig8: the TPAL binaries with the heartbeat mechanism off — pure
// instrumentation (polling, mark maintenance) overhead.
func fig8(s *Session) {
	t := newTable("benchmark", "TPAL sans heartbeat")
	var g kindGeo
	for _, b := range s.Benchmarks() {
		st := s.Heartbeat(b, MechNone, defaultHB, false)
		v := st.Elapsed.Seconds() / s.Serial(b).Seconds()
		g.add(b, v)
		t.addRow(b.Name(), f2(v))
	}
	gi, gr := g.geomeans()
	t.addRow("geomean-iterative", f2(gi))
	t.addRow("geomean-recursive", f2(gr))
	s.printf("%s\nExecution time normalized to serial; heartbeat mechanism disabled, single core.\n\n", t.render())
}

func overheadFig(s *Session, mech MechProfile, label string) {
	t := newTable("benchmark",
		"Serial+int 100us", "TPAL 100us int+promo",
		"Serial+int 20us", "TPAL 20us int+promo")
	var g1, g2, g3, g4 kindGeo
	for _, b := range s.Benchmarks() {
		si100 := s.SerialWithInterrupts(b, mech, defaultHB)
		sp100 := s.Heartbeat(b, mech, defaultHB, true)
		si20 := s.SerialWithInterrupts(b, mech, fastHB)
		sp20 := s.Heartbeat(b, mech, fastHB, true)
		serial := s.Serial(b).Seconds()
		i100 := si100.Elapsed.Seconds() / serial
		p100 := sp100.Elapsed.Seconds() / serial
		i20 := si20.Elapsed.Seconds() / serial
		p20 := sp20.Elapsed.Seconds() / serial
		g1.add(b, i100)
		g2.add(b, p100)
		g3.add(b, i20)
		g4.add(b, p20)
		t.addRow(b.Name(), f2(i100), f2(p100), f2(i20), f2(p20))
	}
	a1, b1 := g1.geomeans()
	a2, b2 := g2.geomeans()
	a3, b3 := g3.geomeans()
	a4, b4 := g4.geomeans()
	t.addRow("geomean-iterative", f2(a1), f2(a2), f2(a3), f2(a4))
	t.addRow("geomean-recursive", f2(b1), f2(b2), f2(b3), f2(b4))
	s.printf("%s\nExecution time normalized to serial; %s mechanism model, single core.\n\n", t.render(), label)
}

// fig9: interrupt-only and interrupt-plus-promotion overheads under the
// Linux signal model.
func fig9(s *Session) { overheadFig(s, MechLinux, "Linux ping-thread") }

// fig13: the same under the Nautilus model, where interrupt costs are
// largely masked.
func fig13(s *Session) { overheadFig(s, MechNautilus, "Nautilus Nemo/APIC") }

// fig10: achieved versus target aggregate heartbeat rate for both
// mechanism models at both rates.
func fig10(s *Session) {
	for _, hb := range []time.Duration{defaultHB, fastHB} {
		t := newTable("benchmark", "target/s", "Linux/s", "Nautilus/s")
		for _, b := range s.Benchmarks() {
			l := s.Heartbeat(b, MechLinux, hb, true)
			n := s.Heartbeat(b, MechNautilus, hb, true)
			// Runs attach one real worker; the aggregate rate scales
			// per-worker delivery to the simulated machine size.
			scale := float64(s.opt.Cores)
			target := scale / hb.Seconds()
			t.addRow(b.Name(),
				stats.FormatCount(int64(target)),
				stats.FormatCount(int64(l.Interrupts.AchievedRate()*scale)),
				stats.FormatCount(int64(n.Interrupts.AchievedRate()*scale)))
		}
		s.printf("Target heartbeat ♥ = %v, %d cores:\n%s\n", hb, s.opt.Cores, t.render())
	}
	s.printf("Aggregate beats/second; Linux under-delivers (timer slop plus serialized\nsignaling sweep), Nautilus tracks the target.\n\n")
}

// fig11: speedup curves as cores grow.
func fig11(s *Session) {
	cores := []int{1, 2, 4, 8, s.opt.Cores}
	for _, b := range s.Benchmarks() {
		cst := s.Cilk(b)
		hst := s.Heartbeat(b, MechLinux, defaultHB, true)
		serial := s.Serial(b)
		t := newTable("cores", "Cilk/Linux", "TPAL 100us/Linux")
		for _, p := range cores {
			t.addRow(fmt.Sprintf("%d", p),
				f1(speedupAt(serial, cst.Cost, p)),
				f1(speedupAt(serial, hst.Cost, p)))
		}
		s.printf("%s:\n%s\n", b.Name(), t.render())
	}
	s.printf("Speedup over serial, projected across core counts.\n\n")
}

// fig14: speedups at scale for all three systems.
func fig14(s *Session) {
	p := s.opt.Cores
	t := newTable("benchmark", "Cilk/Linux", "TPAL 100us/Linux", "TPAL 100us/Nautilus")
	var gc, gl, gn kindGeo
	for _, b := range s.Benchmarks() {
		cst := s.Cilk(b)
		lst := s.Heartbeat(b, MechLinux, defaultHB, true)
		nst := s.Heartbeat(b, MechNautilus, defaultHB, true)
		serial := s.Serial(b)
		c := speedupAt(serial, cst.Cost, p)
		l := speedupAt(serial, lst.Cost, p)
		n := speedupAt(serial, nst.Cost, p)
		gc.add(b, c)
		gl.add(b, l)
		gn.add(b, n)
		t.addRow(b.Name(), f1(c), f1(l), f1(n))
	}
	ci, cr := gc.geomeans()
	li, lr := gl.geomeans()
	ni, nr := gn.geomeans()
	t.addRow("geomean-iterative", f1(ci), f1(li), f1(ni))
	t.addRow("geomean-recursive", f1(cr), f1(lr), f1(nr))
	s.printf("%s\nSpeedup over serial at %d cores.\n\n", t.render(), p)
}

// fig15a: number of created tasks. TPAL counts are promotions measured
// on one worker; a P-core machine receives roughly P× the beats, so a
// ×P estimate is shown alongside.
func fig15a(s *Session) {
	t := newTable("benchmark", "Cilk tasks", "TPAL promotions", fmt.Sprintf("TPAL est. x%d cores", s.opt.Cores))
	for _, b := range s.Benchmarks() {
		c := s.Cilk(b).Sched.TasksCreated
		h := s.Heartbeat(b, MechLinux, defaultHB, true).Promotions
		t.addRow(b.Name(),
			stats.FormatCount(c),
			stats.FormatCount(h),
			stats.FormatCount(h*int64(s.opt.Cores)))
	}
	s.printf("%s\nTasks created during one run (Cilk spawns vs TPAL promotions, Linux model).\n\n", t.render())
}

// fig15b: utilization at scale: useful work over total core time,
// T₁ / (P · T_P) with T_P = T₁/P + T∞.
func fig15b(s *Session) {
	p := s.opt.Cores
	t := newTable("benchmark", "Cilk/Linux", "TPAL 100us/Linux")
	for _, b := range s.Benchmarks() {
		cst := s.Cilk(b)
		hst := s.Heartbeat(b, MechLinux, defaultHB, true)
		cu := utilization(cst.Cost, p)
		hu := utilization(hst.Cost, p)
		t.addRow(b.Name(), pct(cu), pct(hu))
	}
	s.printf("%s\nUtilization at %d cores (useful work / total core time under the projection).\n\n", t.render(), p)
}

// utilization is useful work over total core time on p cores under the
// projection, T₁ / (P · T_P).
func utilization(c sched.Cost, p int) float64 {
	denom := float64(p) * float64(c.ProjectedTime(p))
	if denom <= 0 {
		return 0
	}
	return float64(c.WorkNanos) / denom
}

// headline reproduces the section-4 summary numbers: the task-overhead
// advantage over Cilk, and the speedup/slowdown split at scale.
func headline(s *Session) {
	var overheadRatios []float64
	var wins, losses []float64
	p := s.opt.Cores
	for _, b := range s.Benchmarks() {
		cilkT := s.Cilk(b)
		hbT := s.Heartbeat(b, MechLinux, defaultHB, true)
		serial := s.Serial(b).Seconds()
		// Task-creation overhead = single-core time beyond serial.
		co := cilkT.Elapsed.Seconds()/serial - 1
		ho := hbT.Elapsed.Seconds()/serial - 1
		const floor = 0.005 // half a percent: below measurement noise
		if co < floor {
			co = floor
		}
		if ho < floor {
			ho = floor
		}
		overheadRatios = append(overheadRatios, co/ho)

		cs := speedupAt(s.Serial(b), cilkT.Cost, p)
		hs := speedupAt(s.Serial(b), hbT.Cost, p)
		if hs >= cs {
			wins = append(wins, hs/cs)
		} else {
			losses = append(losses, cs/hs)
		}
	}
	s.printf("Headline numbers (paper: §4):\n")
	s.printf("  task-creation overhead, Cilk vs TPAL (geomean ratio): %.1fx lower for TPAL (paper: 13.8x)\n",
		stats.Geomean(overheadRatios))
	if len(wins) > 0 {
		s.printf("  benchmarks where TPAL wins at %d cores: %d/%d, geomean advantage %.0f%% (paper: +53%%)\n",
			p, len(wins), len(s.Benchmarks()), (stats.Geomean(wins)-1)*100)
	}
	if len(losses) > 0 {
		s.printf("  benchmarks where TPAL trails: %d, geomean slowdown %.1f%% (paper: 9.8%%)\n",
			len(losses), (stats.Geomean(losses)-1)*100)
	}
	s.printf("\n")
}
