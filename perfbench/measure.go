package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"albatross/internal/orca"
	"albatross/internal/sim"
)

// setupReps is how many set-up-only passes over the run list precede the
// timed loop; each run's set-up time is the median over these and the
// set-ups the timed loop itself performs.
const setupReps = 3

// sample is one timed execution of a run: the host time of sys.Run and of
// verify, the CPU time of sys.Run and of sys.Run plus verify, the host time
// span of its visit, and the calibration both CPU times are normalised by.
type sample struct {
	ran, checked, ranCPU, cpu, ref time.Duration
	allocBytes                     uint64
	win                            window
}

// runStats collects every sample of one run of the list.
type runStats struct {
	run     run
	setups  []timing
	samples []sample
	virtual time.Duration
	events  uint64
	digest  string
	// visits counts the visits to the run; lastVisit is the host time the
	// latest one took.
	visits    int
	lastVisit time.Duration
}

// checker compares digests and counts failures.
type checker struct {
	w    *workload
	seed uint64
	// stored holds digests of the Default() inputs by run name;
	// reference, on the sharded workload at another seed, the sequential
	// engine's digests of the seeded runs.
	stored, reference map[string]string
	attempted         int
	failed            int
}

// want returns the digest run r must produce, if one is known.
func (c *checker) want(r run) (string, bool, error) {
	table, from := c.stored, "digests.json"
	if c.w.inputSeed(r, c.seed) != defaultSeed {
		if c.reference == nil {
			return "", false, nil // a seeded run without reference: verify() only
		}
		table, from = c.reference, "the sequential reference"
	}
	d, ok := table[r.String()]
	if !ok {
		return "", false, fmt.Errorf("no digest for it in %s", from)
	}
	return d, true, nil
}

// check records one executed run, printing the reason when it failed.
func (c *checker) check(r run, o outcome) bool {
	c.attempted++
	err := o.err
	if err == nil {
		want, ok, werr := c.want(r)
		switch {
		case werr != nil:
			err = fmt.Errorf("digest %s: %w", o.digest, werr)
		case ok && o.digest != want:
			err = fmt.Errorf("digest %s, want %s", o.digest, want)
		}
	}
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "FAIL %s %s seed %d: %v\n", c.w.name, r, c.seed, err)
		return false
	}
	return true
}

// minVisit is the least host time one visit to a run spends. A shorter run
// executes several times in a row, because the kernel brings the CPU time
// of the process's other threads up to date only at scheduler ticks, and a
// run of a few tens of milliseconds needs several samples for a steady
// median.
const minVisit = 250 * time.Millisecond

// timedLoop sets the run list up setupReps times, then visits every run
// once, and then on, always the run with the fewest visits whose next visit
// still fits in the budget, so that when the long runs no longer fit the
// short ones fill the rest. A forced collection before each execution keeps
// one execution's garbage out of the next one's timing. The host's speed is
// calibrated before the first set-up pass and after every pass and visit,
// and each measurement is normalised by the calibration points around it.
func timedLoop(w *workload, seed uint64, budget time.Duration, chk *checker) ([]*runStats, *calibrator) {
	rs := w.runs()
	stats := make([]*runStats, len(rs))
	for i, r := range rs {
		stats[i] = &runStats{run: r}
	}
	cal := &calibrator{origin: time.Now()}
	cal.measure(0)
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		for _, st := range stats {
			d, err := w.setUp(st.run, seed)
			if err != nil {
				chk.check(st.run, outcome{err: err})
				return nil, cal
			}
			st.setups = append(st.setups, timing{cpu: d})
		}
		win := window{t0, time.Now()}
		for _, st := range stats {
			st.setups[rep].win = win
		}
		cal.measure(win.to.Sub(t0))
	}
	start := time.Now()
	for {
		var st *runStats
		for _, c := range stats {
			if c.visits > 0 && (len(c.samples) == 0 || time.Since(start)+c.lastVisit > budget) {
				continue // it failed, or its next visit would overrun
			}
			if st == nil || c.visits < st.visits {
				st = c
			}
		}
		if st == nil {
			break
		}
		t0 := time.Now()
		setups, samples := len(st.setups), len(st.samples)
		for measure(w, st, seed, chk) && time.Since(t0) < minVisit {
			// a short run: execute it again
		}
		win := window{t0, time.Now()}
		for j := setups; j < len(st.setups); j++ {
			st.setups[j].win = win
		}
		for j := samples; j < len(st.samples); j++ {
			st.samples[j].win = win
		}
		cal.measure(win.to.Sub(t0))
		st.visits++
		st.lastVisit = time.Since(t0)
	}
	for _, st := range stats {
		for j := range st.setups {
			st.setups[j].ref = cal.ref(st.setups[j].win)
		}
		for j := range st.samples {
			st.samples[j].ref = cal.ref(st.samples[j].win)
		}
	}
	return stats, cal
}

// measure executes st's run once and records the sample; it reports
// whether the execution passed every check.
func measure(w *workload, st *runStats, seed uint64, chk *checker) bool {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o := w.execute(st.run, seed, noSpans)
	runtime.ReadMemStats(&after)
	o.sys = nil
	if !chk.check(st.run, o) {
		return false
	}
	if st.digest == "" {
		st.virtual, st.events, st.digest = o.virtual, o.events, o.digest
	} else if o.digest != st.digest {
		chk.failed++
		fmt.Fprintf(os.Stderr, "FAIL %s %s seed %d: digest %s differs from the first execution's %s\n",
			w.name, st.run, seed, o.digest, st.digest)
		return false
	}
	st.setups = append(st.setups, timing{cpu: o.setupCPU})
	st.samples = append(st.samples, sample{ran: o.ran, checked: o.checked,
		ranCPU: o.ranCPU, cpu: o.cpu, allocBytes: after.TotalAlloc - before.TotalAlloc})
	return true
}

// median of a sample set; it reads 0 for an empty one.
func median[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	sort.Float64s(v)
	n := len(v)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// endToEnd holds the user-visible figures of one workload: each run
// contributes its median sample, so a run measured more often than another
// does not weigh more. The metrics are normalised CPU-time figures; the raw
// CPU-time and host-time ones are reported alongside for reference.
type endToEnd struct {
	normCPUS, normRunS, normSetupS, simsecPerNormCPUsec, eventsPerNormCPUsec float64
	cpuS, runCPUS, setupS, simsecPerCPUsec, eventsPerCPUsec, allocMB         float64
	wallS, runS, simsecPerWallsec, eventsPerWallsec                          float64
	events                                                                   uint64
	runs, samples                                                            int
}

func summarize(stats []*runStats) endToEnd {
	var e endToEnd
	logNorm, logCPU, logWall := 0.0, 0.0, 0.0
	for _, st := range stats {
		e.setupS += median(st.setups, func(t timing) float64 { return t.cpu.Seconds() })
		e.normSetupS += median(st.setups, timing.norm)
		if len(st.samples) == 0 {
			continue
		}
		normRun := median(st.samples, func(s sample) float64 { return timing{cpu: s.ranCPU, ref: s.ref}.norm() })
		ranCPU := median(st.samples, func(s sample) float64 { return s.ranCPU.Seconds() })
		ran := median(st.samples, func(s sample) float64 { return s.ran.Seconds() })
		e.normRunS += normRun
		e.runCPUS += ranCPU
		e.runS += ran
		e.normCPUS += median(st.samples, func(s sample) float64 { return timing{cpu: s.cpu, ref: s.ref}.norm() })
		e.cpuS += median(st.samples, func(s sample) float64 { return s.cpu.Seconds() })
		e.wallS += median(st.samples, func(s sample) float64 { return (s.ran + s.checked).Seconds() })
		e.allocMB += median(st.samples, func(s sample) float64 { return float64(s.allocBytes) }) / (1 << 20)
		e.events += st.events
		logNorm += math.Log(st.virtual.Seconds() / normRun)
		logCPU += math.Log(st.virtual.Seconds() / ranCPU)
		logWall += math.Log(st.virtual.Seconds() / ran)
		e.runs++
		e.samples += len(st.samples)
	}
	if e.runs > 0 {
		e.simsecPerNormCPUsec = math.Exp(logNorm / float64(e.runs))
		e.eventsPerNormCPUsec = float64(e.events) / e.normRunS
		e.simsecPerCPUsec = math.Exp(logCPU / float64(e.runs))
		e.eventsPerCPUsec = float64(e.events) / e.runCPUS
		e.simsecPerWallsec = math.Exp(logWall / float64(e.runs))
		e.eventsPerWallsec = float64(e.events) / e.runS
	}
	return e
}

// layerCounts sums the per-layer counters of one pass over the run list.
type layerCounts struct {
	events                              uint64
	lanMsgs, wanMsgs, wanFrames, framed int64
	reroutes, held                      int64
	rpcs, bcasts, dataMsgs              int64
	rel                                 orca.RelStats
	inspected, drops, crashDrops        uint64
	lpWindows, lpFences, lpIdle         uint64
	lpFenceWait, lpThreadTime           time.Duration
	lpMaxEvents, lpMeanEvents           float64
	cpu                                 time.Duration // sys.Run + verify
}

func (c *layerCounts) add(o outcome) {
	sys := o.sys
	c.events += o.events
	c.cpu += o.cpu
	st := sys.Net.Stats()
	c.lanMsgs += st.TotalIntra().Msgs
	c.wanMsgs += st.TotalInter().Msgs
	c.wanFrames += st.WANFrames().Msgs
	c.framed += st.FramedMsgs()
	c.reroutes += st.Reroutes()
	c.held += st.HeldMsgs()
	ops := sys.RTS.Ops()
	c.rpcs += ops.RPCs
	c.bcasts += ops.Bcasts
	c.dataMsgs += ops.DataMsgs
	rel := sys.RTS.RelStats()
	c.rel.Wrapped += rel.Wrapped
	c.rel.Retransmits += rel.Retransmits
	c.rel.DupDropped += rel.DupDropped
	c.inspected += o.faults.Inspected
	c.drops += o.faults.Drops
	c.crashDrops += o.faults.CrashDrops
	if lps := sys.ShardStats(); lps != nil {
		c.addLPs(lps, o.ran)
	}
}

func (c *layerCounts) addLPs(lps []sim.LPStats, ran time.Duration) {
	var most, sum uint64
	for _, lp := range lps {
		c.lpWindows += lp.Windows
		c.lpFences += lp.Windows - lp.Chained
		c.lpIdle += lp.IdleWindows
		c.lpFenceWait += lp.FenceWait
		c.lpThreadTime += ran
		sum += lp.Events
		if lp.Events > most {
			most = lp.Events
		}
	}
	c.lpMaxEvents += float64(most)
	c.lpMeanEvents += float64(sum) / float64(len(lps))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the process's CPU time so far, user plus system, over all
// threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// machineTicks reads the machine-wide CPU time from /proc/stat, in clock
// ticks: the time the hypervisor stole from this VM's CPUs and the total.
// Both read 0 where /proc/stat is missing.
func machineTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = n
		}
	}
	return steal, total
}
