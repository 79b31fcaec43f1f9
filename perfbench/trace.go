package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// span is one timed section of the traced pass. Each run is a parent span
// whose children are its stages; a span's self time is its duration minus
// the time its children cover.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Run     string `json:"run"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) add(parent int, run, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: run,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds()})
	return id
}

// finish computes every span's self time. Children never overlap one
// another, so the time they cover is the sum of their durations.
func (t *tracer) finish() {
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfNS = s.EndNS - s.StartNS - child[s.ID]
	}
}

// selfSeconds sums the self time of every span with the given name.
func (t *tracer) selfSeconds(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.SelfNS
		}
	}
	return float64(ns) / 1e9
}

// tracedPass executes the run list once with spans recorded and a CPU
// profile taken, and returns the tracer, the per-layer counters and the
// profile's path.
func tracedPass(w *workload, seed uint64, outDir string, chk *checker) (*tracer, layerCounts, string, error) {
	var counts layerCounts
	profile := filepath.Join(outDir, w.name+".cpu.pprof")
	f, err := os.Create(profile)
	if err != nil {
		return nil, counts, "", err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, counts, "", err
	}
	tr := &tracer{origin: time.Now()}
	for _, r := range w.runs() {
		name := r.String()
		type stage struct {
			name       string
			start, end time.Time
		}
		var stages []stage
		t0 := time.Now()
		o := w.execute(r, seed, func(n string, s, e time.Time) { stages = append(stages, stage{n, s, e}) })
		parent := tr.add(0, name, "execute", t0, time.Now())
		for _, s := range stages {
			tr.add(parent, name, s.name, s.start, s.end)
		}
		if chk.check(r, o) {
			counts.add(o)
		}
	}
	pprof.StopCPUProfile()
	tr.finish()
	return tr, counts, profile, f.Close()
}

// writeSpans writes the traced pass's spans as JSON.
func writeSpans(path string, tr *tracer) error {
	data, err := json.MarshalIndent(tr.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Runtime functions on the paths a goroutine process switch pays for:
// channel send/receive, the scheduler and futex sleep/wake.
var schedFuncs = map[string]bool{}

func init() {
	for _, f := range strings.Fields(`
		chansend chansend1 chanrecv chanrecv1 chanrecv2 send recv sendDirect recvDirect
		selectgo selectnbsend selectnbrecv (*waitq).dequeue (*waitq).enqueue
		acquireSudog releaseSudog lock2 unlock2 lockWithRank unlockWithRank
		schedule findRunnable park_m gopark goready ready mcall gogo execute casgstatus
		runqput runqget runqgrab runqsteal stealWork wakep startm stopm mPark handoffp
		acquirep releasep resetspinning checkTimers goschedImpl gosched_m dropg
		globrunqget globrunqput injectglist pidleget pidleput mget mput gfget gfput
		futex futexsleep futexwakeup notesleep notewakeup notetsleep notetsleepg
		notetsleep_internal usleep osyield procyield semasleep semawakeup
		lockOSThread unlockOSThread dolockOSThread dounlockOSThread`) {
		schedFuncs["runtime."+f] = true
	}
}

// gcRoots are the runtime entry points whose cumulative time is garbage
// collection: background marking, mark assists, sweeping and scavenging.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// layerPackages maps the repository's packages to the layer names of the
// per-layer metrics.
var layerPackages = []struct{ prefix, layer string }{
	{"albatross/internal/sim.", "sim"},
	{"albatross/internal/netsim.", "netsim"},
	{"albatross/internal/orca.", "orca"},
	{"albatross/internal/coll.", "coll"},
	{"albatross/internal/faults.", "faults"},
	{"albatross/internal/core.", "core"},
	{"albatross/internal/apps/", "apps"},
}

// cpuShares reads a CPU profile with the toolchain's offline
// `go tool pprof -top` and returns each layer's share of all samples: flat
// time by package for the repository's layers and the scheduler paths, and
// cumulative time under the collector's entry points for GC.
func cpuShares(profile string) (map[string]float64, error) {
	var out, stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	shares := map[string]float64{}
	for _, l := range layerPackages {
		shares[l.layer] = 0
	}
	shares["runtime.sched"], shares["runtime.gc"] = 0, 0
	rows := 0
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		flat, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		rows++
		fn := strings.Join(f[5:], " ")
		for _, l := range layerPackages {
			if strings.HasPrefix(fn, l.prefix) {
				shares[l.layer] += flat / 100
			}
		}
		if schedFuncs[fn] {
			shares["runtime.sched"] += flat / 100
		}
		for _, g := range gcRoots {
			if fn == g {
				shares["runtime.gc"] += cum / 100
			}
		}
	}
	if rows == 0 {
		return nil, fmt.Errorf("go tool pprof -top printed no samples for %s", profile)
	}
	return shares, nil
}
