package trace

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// LaneSummary aggregates one worker lane of a drained trace.
type LaneSummary struct {
	Worker     int
	Tasks      int64 // top-level task executions (depth-1 start events)
	Steals     int64
	StealFails int64 // idle stretches entered (coalesced sweeps)
	Beats      int64
	Promotions int64
	BusyNanos  int64 // sum of depth-1 task-start..task-end intervals
}

// Timeline is the per-worker view of a drained trace.
type Timeline struct {
	Trace *Trace
	Lanes []LaneSummary
}

// BuildTimeline folds a drained trace into per-worker lane summaries.
// Busy time is reconstructed from depth-1 task-start/task-end pairs; an
// unpaired start (task still running at drain) is closed at the trace's
// end.
func BuildTimeline(tr *Trace) *Timeline {
	tl := &Timeline{Trace: tr}
	if tr.Workers <= 0 {
		return tl
	}
	tl.Lanes = make([]LaneSummary, tr.Workers)
	open := make([]int64, tr.Workers) // depth-1 start TS, -1 when closed
	for i := range tl.Lanes {
		tl.Lanes[i].Worker = i
		open[i] = -1
	}
	for _, e := range tr.Events {
		if e.Worker < 0 || int(e.Worker) >= tr.Workers {
			continue
		}
		l := &tl.Lanes[e.Worker]
		switch e.Kind {
		case EvTaskStart:
			if e.A == 1 {
				l.Tasks++
				open[e.Worker] = e.TS
			}
		case EvTaskEnd:
			if e.A == 1 && open[e.Worker] >= 0 {
				l.BusyNanos += e.TS - open[e.Worker]
				open[e.Worker] = -1
			}
		case EvSteal:
			l.Steals++
		case EvStealFail:
			l.StealFails++
		case EvBeatObserve:
			l.Beats++
		case EvPromotion:
			l.Promotions++
		}
	}
	end := tr.Duration.Nanoseconds()
	for i, ts := range open {
		if ts >= 0 && end > ts {
			tl.Lanes[i].BusyNanos += end - ts
		}
	}
	return tl
}

// Utilization is the busy fraction across all lanes over the trace
// duration — the trace-derived counterpart of sched.Stats.Utilization.
func (tl *Timeline) Utilization() float64 {
	total := float64(tl.Trace.Duration.Nanoseconds()) * float64(len(tl.Lanes))
	if total <= 0 {
		return 0
	}
	var busy float64
	for _, l := range tl.Lanes {
		busy += float64(l.BusyNanos)
	}
	u := busy / total
	if u > 1 {
		u = 1
	}
	return u
}

// gantt columns of the text rendering.
const ganttCols = 60

// WriteText renders the timeline for humans: one gantt row per worker
// (each column is elapsed/60 of the run; ' ' idle, '░' < 50% busy, '▓'
// < 95%, '█' otherwise), the lane summary table, and the promotion-gap
// histogram when the trace carries gap events.
func (tl *Timeline) WriteText(w io.Writer) {
	tr := tl.Trace
	fmt.Fprintf(w, "trace: %d worker(s), %s, %d event(s) retained, %d dropped\n",
		tr.Workers, tr.Duration.Round(time.Microsecond), len(tr.Events), tr.Dropped)

	// Per-column busy fractions from depth-1 task intervals.
	colNanos := tr.Duration.Nanoseconds() / ganttCols
	if colNanos <= 0 {
		colNanos = 1
	}
	busy := make([][]int64, tr.Workers)
	for i := range busy {
		busy[i] = make([]int64, ganttCols)
	}
	open := make([]int64, tr.Workers)
	for i := range open {
		open[i] = -1
	}
	addInterval := func(lane int, lo, hi int64) {
		for c := lo / colNanos; c <= hi/colNanos && c < ganttCols; c++ {
			s, e := c*colNanos, (c+1)*colNanos
			if lo > s {
				s = lo
			}
			if hi < e {
				e = hi
			}
			if e > s {
				busy[lane][c] += e - s
			}
		}
	}
	for _, e := range tr.Events {
		if e.Worker < 0 || int(e.Worker) >= tr.Workers || e.A != 1 {
			continue
		}
		switch e.Kind {
		case EvTaskStart:
			open[e.Worker] = e.TS
		case EvTaskEnd:
			if open[e.Worker] >= 0 {
				addInterval(int(e.Worker), open[e.Worker], e.TS)
				open[e.Worker] = -1
			}
		}
	}
	for lane, ts := range open {
		if ts >= 0 {
			addInterval(lane, ts, tr.Duration.Nanoseconds())
		}
	}
	for lane := 0; lane < tr.Workers; lane++ {
		var sb strings.Builder
		for c := 0; c < ganttCols; c++ {
			f := float64(busy[lane][c]) / float64(colNanos)
			switch {
			case f < 0.05:
				sb.WriteByte(' ')
			case f < 0.5:
				sb.WriteRune('░')
			case f < 0.95:
				sb.WriteRune('▓')
			default:
				sb.WriteRune('█')
			}
		}
		fmt.Fprintf(w, "w%-2d |%s|\n", lane, sb.String())
	}

	fmt.Fprintf(w, "%-4s %8s %8s %8s %8s %10s %8s\n",
		"lane", "tasks", "steals", "idles", "beats", "promotions", "busy%")
	for _, l := range tl.Lanes {
		pct := 0.0
		if d := tr.Duration.Nanoseconds(); d > 0 {
			pct = 100 * float64(l.BusyNanos) / float64(d)
		}
		fmt.Fprintf(w, "w%-3d %8d %8d %8d %8d %10d %7.1f%%\n",
			l.Worker, l.Tasks, l.Steals, l.StealFails, l.Beats, l.Promotions, pct)
	}
	fmt.Fprintf(w, "utilization %.3f\n", tl.Utilization())

	if tr.Count(EvGap) > 0 {
		fmt.Fprintf(w, "promotion-gap histogram (machine steps, log2 buckets; max %d):\n", tr.MaxGap)
		WriteHistogram(w, tr.GapHist[:], "steps")
	}
}

// WriteHistogram renders nonzero log2 buckets with proportional bars.
func WriteHistogram(w io.Writer, buckets []int64, unit string) {
	var max int64
	for _, n := range buckets {
		if n > max {
			max = n
		}
	}
	if max == 0 {
		fmt.Fprintln(w, "  (empty)")
		return
	}
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		bar := int(40 * n / max)
		if bar == 0 {
			bar = 1
		}
		fmt.Fprintf(w, "  %12d %s %8d |%s\n", int64(1)<<i, unit, n, strings.Repeat("#", bar))
	}
}

// ServiceLatencies extracts the heartbeat service latencies of a
// runtime trace: for each promotion, the nanoseconds since the beat
// observation that triggered it on the same worker. The returned slice
// is in event order.
func ServiceLatencies(tr *Trace) []int64 {
	lastObserve := make(map[int32]int64)
	var out []int64
	for _, e := range tr.Events {
		switch e.Kind {
		case EvBeatObserve:
			lastObserve[e.Worker] = e.TS
		case EvPromotion:
			if ts, ok := lastObserve[e.Worker]; ok {
				out = append(out, e.TS-ts)
				delete(lastObserve, e.Worker)
			}
		}
	}
	return out
}

// HistogramOf buckets values into log2 buckets, returning the buckets
// and the maximum value.
func HistogramOf(values []int64) (buckets [gapBuckets]int64, max int64) {
	for _, v := range values {
		buckets[bucketOf(v)]++
		if v > max {
			max = v
		}
	}
	return buckets, max
}
