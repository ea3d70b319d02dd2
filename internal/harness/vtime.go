package harness

import (
	"strconv"

	"tpal/internal/heartbeat"
	"tpal/internal/vtime"
)

// vtimeExp is an extension experiment validating the at-scale
// projection: it records the promotion DAG of a heartbeat run and
// replays it on P virtual cores with the discrete-event simulator,
// comparing the simulated makespan against the analytic greedy bound
// T₁/P + T∞ that figures 7/11/14 use. Agreement means the bound is
// tight for these DAGs and the projected speedups are not artifacts of
// the bound's slack.
func vtimeExp(s *Session) {
	p := s.opt.Cores
	t := newTable("benchmark", "tasks", "speedup(bound)", "speedup(sim)", "sim/bound")
	for _, b := range s.Benchmarks() {
		s.setup(b)
		// One recorded run (recording is cheap: two clock reads per
		// promotion).
		rec := vtime.NewRecorder()
		heartbeat.Run(heartbeat.Config{
			Workers:   1,
			Heartbeat: defaultHB,
			Mechanism: s.mechanism(MechLinux),
			Recorder:  rec,
		}, func(c *heartbeat.Ctx) {
			b.RunHeartbeat(c)
		})
		s.timeSerialOnce(b)
		serial := s.Serial(b)

		dag, err := rec.DAG()
		if err != nil {
			s.printf("%s: %v\n", b.Name(), err)
			continue
		}
		boundT := float64(dag.Work())/float64(p) + float64(dag.Span())
		simT := float64(dag.Simulate(p))
		spBound := serial.Seconds() / (boundT / 1e9)
		spSim := serial.Seconds() / (simT / 1e9)
		ratio := 1.0
		if boundT > 0 {
			ratio = simT / boundT
		}
		t.addRow(b.Name(),
			strconv.Itoa(dag.Tasks()),
			f1(spBound), f1(spSim), f2(ratio))
	}
	s.printf("%s\nSimulated greedy schedule of the recorded promotion DAG on %d virtual\ncores versus the analytic bound; sim/bound <= 1 always, and near 1 means\nthe projection used by figs. 7/11/14 is tight.\n\n", t.render(), p)
}
