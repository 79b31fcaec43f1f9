// Command perfbench is the simulator's benchmark. It runs one workload —
// the eight applications on one simulated platform — built from the
// library's lowest public API, checks every run's output, and prints the
// workload's metrics. With --trace 0 it prints the end-to-end metrics of an
// untraced timed loop. With --trace 1 it makes one untraced pass, one
// traced pass (spans and a CPU profile) and the per-layer probe ladder, and
// prints the per-layer metrics. The last line of standard output is the
// result as one JSON object. Run it from the repository root through
// run.sh, which builds it:
//
//	bash perfbench/run.sh --workload das-paper --seed 0 --seconds 25 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

//go:embed digests.json
var digestsJSON []byte

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one run's samples in the result record.
type runRecord struct {
	Run      string    `json:"run"`
	Digest   string    `json:"digest"`
	VirtualS float64   `json:"virtual_s"`
	Events   uint64    `json:"events"`
	SetupCPU []float64 `json:"setup_cpu_s"`
	SetupRef []float64 `json:"setup_calibration_s"`
	RunCPU   []float64 `json:"run_cpu_s"`
	RunRef   []float64 `json:"run_calibration_s"`
	// RunWin is each sample's visit, in host seconds since the timed loop
	// began.
	RunWin  [][2]float64 `json:"run_window_s"`
	RunS    []float64    `json:"run_s"`
	VerifyS []float64    `json:"verify_s"`
}

// hostShape is recorded with every result.
type hostShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func host() hostShape {
	h := hostShape{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: "unknown (not built from a git checkout)"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// storedDigests returns the digests.json entries the workload's runs of
// Default() inputs must match.
func storedDigests(w *workload) (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	name := w.name
	if w.sameAs != "" {
		name = w.sameAs
	}
	return all[name], nil
}

// referenceDigests runs w's seeded runs on the sequential workload w.sameAs
// untimed and returns their digests, which the sharded engine must
// reproduce.
func referenceDigests(w *workload, seed uint64) (map[string]string, error) {
	ref, err := workloadByName(w.sameAs)
	if err != nil {
		return nil, err
	}
	digests := map[string]string{}
	for _, r := range w.runs() {
		if ref.inputSeed(r, seed) == defaultSeed {
			continue
		}
		o := ref.execute(r, seed, noSpans)
		if o.err != nil {
			return nil, fmt.Errorf("reference %s %s: %w", ref.name, r, o.err)
		}
		digests[r.String()] = o.digest
	}
	return digests, nil
}

func main() {
	name := flag.String("workload", "", "workload to run")
	// Any integer is a seed; a negative one is taken as its two's-complement
	// bit pattern.
	seed := flag.Int64("seed", defaultSeed, "workload seed; 0 runs every application's Default() inputs")
	seconds := flag.Int("seconds", 25, "length of the timed loop in seconds")
	trace := flag.Int("trace", 0, "1 adds the traced pass and the probe ladder and reports per-layer metrics")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for spans, profiles and result records")
	flag.Parse()
	if err := bench(*name, uint64(*seed), time.Duration(*seconds)*time.Second, *trace == 1, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func bench(name string, seed uint64, budget time.Duration, traced bool, outDir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	// A missing topology file means the benchmark is not running from a
	// repository checkout: refuse before measuring anything.
	if _, err := w.topology(); err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	chk := &checker{w: w, seed: seed}
	if chk.stored, err = storedDigests(w); err != nil {
		return err
	}
	if w.sameAs != "" && seed != defaultSeed {
		if chk.reference, err = referenceDigests(w, seed); err != nil {
			return err
		}
	}

	if traced {
		// The traced process needs only one untraced pass to compare the
		// traced one against.
		budget = 0
	}
	if err := buildArena(); err != nil {
		return err
	}
	steal0, total0 := machineTicks()
	stats, cal := timedLoop(w, seed, budget, chk)
	e2e := summarize(stats)
	metrics := map[string]metric{}
	if !traced {
		metrics = map[string]metric{
			"norm_cpu_s":             {e2e.normCPUS, "s"},
			"simsec_per_norm_cpusec": {e2e.simsecPerNormCPUsec, "s/s"},
			"events_per_norm_cpusec": {e2e.eventsPerNormCPUsec, "1/s"},
			"setup_s":                {e2e.normSetupS, "s"},
			"alloc_mb":               {e2e.allocMB, "MB"},
			"max_rss_mb":             {maxRSSMB(), "MB"},
			"verified_share":         {ratio(float64(chk.attempted-chk.failed), float64(chk.attempted)), "share"},
		}
	} else {
		if err := perLayer(w, seed, e2e, chk, outDir, metrics); err != nil {
			return err
		}
	}
	steal1, total1 := machineTicks()
	// Host time is what a user waits, but on a shared VM it also counts the
	// time the hypervisor gives this VM's CPUs to others, and raw CPU time
	// moves with the host's speed, so both are reported beside the metrics,
	// not as ones.
	hostTime := struct {
		WallS            float64 `json:"wall_s"`
		SimsecPerWallsec float64 `json:"simsec_per_wallsec"`
		EventsPerWallsec float64 `json:"events_per_wallsec"`
		CPUS             float64 `json:"cpu_s"`
		SimsecPerCPUsec  float64 `json:"simsec_per_cpusec"`
		EventsPerCPUsec  float64 `json:"events_per_cpusec"`
		SetupCPUS        float64 `json:"setup_cpu_s"`
		StealShare       float64 `json:"steal_share"`
	}{e2e.wallS, e2e.simsecPerWallsec, e2e.eventsPerWallsec,
		e2e.cpuS, e2e.simsecPerCPUsec, e2e.eventsPerCPUsec, e2e.setupS,
		ratio(float64(steal1-steal0), float64(total1-total0))}
	if traced {
		metrics["host.steal_share"] = metric{hostTime.StealShare, "share"}
	}
	res := result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: metrics}
	h := host()
	record := struct {
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Traced   bool        `json:"traced"`
		Host     hostShape   `json:"host"`
		HostTime any         `json:"host_time"`
		Runs     []runRecord `json:"runs"`
		// Calibration holds every calibration point: its host time since
		// the timed loop began, the kernel's mean CPU time, and the
		// repetitions it took, each in seconds or a count.
		Calibration [][3]float64 `json:"calibration"`
		Result      result       `json:"result"`
	}{Workload: w.name, Seed: seed, Traced: traced, Host: h, HostTime: hostTime, Result: res}
	for _, p := range cal.points {
		record.Calibration = append(record.Calibration,
			[3]float64{p.at.Sub(cal.origin).Seconds(), (p.sum / time.Duration(p.n)).Seconds(), float64(p.n)})
	}
	for _, st := range stats {
		rr := runRecord{Run: st.run.String(), Digest: st.digest, VirtualS: st.virtual.Seconds(), Events: st.events}
		for _, t := range st.setups {
			rr.SetupCPU = append(rr.SetupCPU, t.cpu.Seconds())
			rr.SetupRef = append(rr.SetupRef, t.ref.Seconds())
		}
		for _, s := range st.samples {
			rr.RunCPU = append(rr.RunCPU, s.ranCPU.Seconds())
			rr.RunRef = append(rr.RunRef, s.ref.Seconds())
			rr.RunWin = append(rr.RunWin, [2]float64{s.win.from.Sub(cal.origin).Seconds(), s.win.to.Sub(cal.origin).Seconds()})
			rr.RunS = append(rr.RunS, s.ran.Seconds())
			rr.VerifyS = append(rr.VerifyS, s.checked.Seconds())
		}
		record.Runs = append(record.Runs, rr)
	}
	data, err := json.MarshalIndent(record, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s.seed%d.trace%v.json", w.name, seed, traced))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}

	fmt.Printf("workload %s seed %d traced %v: %d runs, %d timed samples\n", w.name, seed, traced, e2e.runs, e2e.samples)
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s %s/%s, commit %s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.Commit)
	fmt.Printf("host time, not a metric: wall_s %.6g s, simsec_per_wallsec %.6g s/s, events_per_wallsec %.6g 1/s; hypervisor steal %.1f%% of the machine's CPU time\n",
		hostTime.WallS, hostTime.SimsecPerWallsec, hostTime.EventsPerWallsec, 100*hostTime.StealShare)
	fmt.Printf("raw CPU time, not a metric: cpu_s %.6g s, simsec_per_cpusec %.6g s/s, events_per_cpusec %.6g 1/s, setup_cpu_s %.6g s\n",
		hostTime.CPUS, hostTime.SimsecPerCPUsec, hostTime.EventsPerCPUsec, hostTime.SetupCPUS)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-46s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// perLayer makes the traced pass, reads its profile, runs the probe ladder
// and fills in the per-layer metrics.
func perLayer(w *workload, seed uint64, e2e endToEnd, chk *checker, outDir string, m map[string]metric) error {
	tr, c, profile, err := tracedPass(w, seed, outDir, chk)
	if err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(outDir, w.name+".spans.json"), tr); err != nil {
		return err
	}
	shares, err := cpuShares(profile)
	if err != nil {
		return err
	}
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	share := func(name string, v float64) { m[name] = metric{v, "share"} }

	count("sim.events", float64(c.events))
	m["sim.ns_per_event"] = metric{ratio(e2e.runCPUS*1e9, float64(e2e.events)), "ns"}
	share("sim.cpu_share", shares["sim"])
	// The sim.lp counters exist on the sharded engine only; they read 0 on
	// the sequential workloads.
	count("sim.lp.windows", float64(c.lpWindows))
	count("sim.lp.fences", float64(c.lpFences))
	share("sim.lp.idle_share", ratio(float64(c.lpIdle), float64(c.lpWindows)))
	share("sim.lp.fence_wait_share", ratio(c.lpFenceWait.Seconds(), c.lpThreadTime.Seconds()))
	m["sim.lp.event_imbalance"] = metric{ratio(c.lpMaxEvents, c.lpMeanEvents), "ratio"}

	share("runtime.sched_cpu_share", shares["runtime.sched"])
	share("runtime.gc_cpu_share", shares["runtime.gc"])

	count("netsim.msgs_lan", float64(c.lanMsgs))
	count("netsim.msgs_wan", float64(c.wanMsgs))
	count("netsim.wan_frames", float64(c.wanFrames))
	m["netsim.frame_packing"] = metric{ratio(float64(c.framed), float64(c.wanFrames)), "msgs/frame"}
	count("netsim.reroutes", float64(c.reroutes))
	count("netsim.held_msgs", float64(c.held))
	share("netsim.cpu_share", shares["netsim"])

	count("orca.rpcs", float64(c.rpcs))
	count("orca.bcasts", float64(c.bcasts))
	count("orca.data_msgs", float64(c.dataMsgs))
	count("orca.arq.wrapped", float64(c.rel.Wrapped))
	count("orca.arq.retransmits", float64(c.rel.Retransmits))
	count("orca.arq.dup_dropped", float64(c.rel.DupDropped))
	share("orca.arq.useful_share", ratio(float64(c.rel.Wrapped), float64(c.rel.Wrapped+c.rel.Retransmits)))
	share("orca.cpu_share", shares["orca"])

	share("coll.cpu_share", shares["coll"])

	count("faults.inspected", float64(c.inspected))
	count("faults.drops", float64(c.drops))
	count("faults.crash_drops", float64(c.crashDrops))
	share("faults.cpu_share", shares["faults"])

	m["cluster.load_s"] = metric{tr.selfSeconds("load"), "s"}
	m["core.new_system_s"] = metric{tr.selfSeconds("new_system"), "s"}
	m["apps.build_s"] = metric{tr.selfSeconds("build"), "s"}
	m["core.run_s"] = metric{tr.selfSeconds("run"), "s"}
	m["apps.verify_s"] = metric{tr.selfSeconds("verify"), "s"}
	share("apps.cpu_share", shares["apps"])
	share("core.cpu_share", shares["core"])
	// CPU time of run and verify in the traced pass against the untraced
	// pass's; host time would count hypervisor steal as overhead.
	m["trace.overhead"] = metric{ratio(c.cpu.Seconds(), e2e.cpuS) - 1, "share"}

	for _, p := range probes {
		chk.attempted++
		r, err := runProbe(p)
		if err != nil {
			chk.failed++
			fmt.Fprintf(os.Stderr, "FAIL probe %s: %v\n", p.name, err)
		}
		m[p.name] = metric{r.perOp, p.unit}
		m[p.name[:len(p.name)-len("_"+p.unit)]+".allocs"] = metric{r.allocs, "allocs/op"}
	}
	return nil
}
