package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/coll"
	"albatross/internal/core"
	"albatross/internal/netsim"
	"albatross/internal/orca"
	"albatross/internal/sim"
)

// The probe ladder times one layer at a time from outside, through the
// layer's public API, in a tight loop of a fixed number of operations. Each
// probe's prepare builds its fixture untimed and returns the timed loop; the
// loop returns an error when the layer did not do the work asked of it.
type probe struct {
	name    string // metric name; its allocation sibling is name minus the unit suffix + ".allocs"
	unit    string // "ns" or "us" per operation
	ops     int
	prepare func(ops int) (func() error, error)
}

// probeReps is how often each probe runs; the median-time repetition is
// reported.
const probeReps = 3

type probeResult struct {
	perOp  float64 // in the probe's unit
	allocs float64 // heap allocations per operation
}

// runProbe times a probe probeReps times, each on a fresh fixture.
func runProbe(p probe) (probeResult, error) {
	type rep struct{ ns, allocs float64 }
	reps := make([]rep, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		loop, err := p.prepare(p.ops)
		if err != nil {
			return probeResult{}, err
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		err = loop()
		ns := float64(time.Since(t0).Nanoseconds())
		runtime.ReadMemStats(&after)
		if err != nil {
			return probeResult{}, err
		}
		reps = append(reps, rep{ns / float64(p.ops), float64(after.Mallocs-before.Mallocs) / float64(p.ops)})
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].ns < reps[j].ns })
	m := reps[len(reps)/2]
	scale := 1.0
	if p.unit == "us" {
		scale = 1e-3
	}
	return probeResult{perOp: m.ns * scale, allocs: m.allocs}, nil
}

// counted checks that a loop did its work.
func counted(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s: %d of %d done", what, got, want)
	}
	return nil
}

// timerChain schedules ops events back to back, each delay after the last.
func timerChain(delay time.Duration) func(int) (func() error, error) {
	return func(ops int) (func() error, error) {
		e := sim.NewEngine()
		n := 0
		var tick func()
		tick = func() {
			if n++; n < ops {
				e.After(delay, tick)
			}
		}
		return func() error {
			e.After(delay, tick)
			if err := e.Run(); err != nil {
				return err
			}
			return counted("events", n, ops)
		}, nil
	}
}

// pingPong runs ops mailbox hand-offs between two processes spawned on e
// (half a round trip each); run starts the engine that owns e.
func pingPong(e *sim.Engine, ops int, run func() error) func() error {
	ping, pong := sim.NewMailbox(e, "ping"), sim.NewMailbox(e, "pong")
	var tok any = "tok"
	rounds := ops / 2
	got := 0
	e.Go("a", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ping.Put(tok)
			pong.Get(p)
		}
	})
	e.Go("b", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ping.Get(p)
			got++
			pong.Put(tok)
		}
	})
	return func() error {
		if err := run(); err != nil {
			return err
		}
		return counted("round trips", got, rounds)
	}
}

// lpLookahead is the fence distance of the two-LP probes.
const lpLookahead = time.Millisecond

func twoLPs() (*sim.Engine, []*sim.Engine) {
	root := sim.NewEngine()
	lps := root.Shard(2)
	root.SetLookahead(lpLookahead)
	return root, lps
}

// crossLP runs two event chains that swap LPs at every step, each hop
// exactly one lookahead ahead: every window holds one event on each LP, so
// each operation is one fenced window run by both LP runners.
func crossLP(ops int) (func() error, error) {
	root, lps := twoLPs()
	var n [2]int // events run per LP; each LP touches only its own
	var step [2]func()
	for i := range lps {
		i := i
		step[i] = func() {
			if n[i]++; n[i] < ops {
				lps[i].AtShard(lps[1-i], lps[i].Now()+lpLookahead, step[1-i])
			}
		}
	}
	lps[0].At(0, step[0])
	lps[1].At(0, step[1])
	return func() error {
		if err := root.Run(); err != nil {
			return err
		}
		return counted("cross-LP hops", n[0]+n[1], 2*ops)
	}, nil
}

// netBurst is how many messages a hop probe injects before draining the
// engine, so queues behave as under an application's bursts.
const netBurst = 16

// hops times ops data messages from one node to another on a fresh network,
// burst at a time (0: all at once).
func hops(topo func() (cluster.Topology, error), par cluster.Params, burst int, ends func(cluster.Topology) (cluster.NodeID, cluster.NodeID, error)) func(int) (func() error, error) {
	return func(ops int) (func() error, error) {
		t, err := topo()
		if err != nil {
			return nil, err
		}
		from, to, err := ends(t)
		if err != nil {
			return nil, err
		}
		e := sim.NewEngine()
		net := netsim.New(e, t, par)
		got := 0
		net.SetHandler(to, func(netsim.Msg) { got++ })
		m := netsim.Msg{From: from, To: to, Kind: netsim.KindData, Size: 1000}
		n := burst
		if n == 0 {
			n = ops
		}
		return func() error {
			for sent := 0; sent < ops; {
				for i := 0; i < n && sent < ops; i++ {
					net.Send(m)
					sent++
				}
				if err := e.Run(); err != nil {
					return err
				}
			}
			return counted("messages", got, ops)
		}, nil
	}
}

func firstNodes(c0, c1 int) func(cluster.Topology) (cluster.NodeID, cluster.NodeID, error) {
	return func(t cluster.Topology) (cluster.NodeID, cluster.NodeID, error) {
		return t.Node(c0, 0), t.Node(c1, 0), nil
	}
}

// farthestLeaves picks the cluster pair with the most WAN hops between them
// on a declared graph (leaf to leaf across the backbone on tiered64).
func farthestLeaves(t cluster.Topology) (cluster.NodeID, cluster.NodeID, error) {
	if t.WAN == nil {
		return 0, 0, fmt.Errorf("topology has no declared WAN graph")
	}
	best, bs, bd := -1, 0, 0
	for s := 0; s < t.Clusters; s++ {
		for d := 0; d < t.Clusters; d++ {
			h := 0
			for u := s; u != d; u = t.WAN.Next(u, d) {
				if h++; h > t.Clusters {
					return 0, 0, fmt.Errorf("no route from cluster %d to %d", s, d)
				}
			}
			if h > best {
				best, bs, bd = h, s, d
			}
		}
	}
	return t.Node(bs, 0), t.Node(bd, 0), nil
}

// onNode runs body on one node of a fresh system and checks the run.
func onNode(sys *core.System, node cluster.NodeID, body func(w *core.Worker) error) func() error {
	var bodyErr error
	sys.SpawnAt(node, "probe", func(w *core.Worker) { bodyErr = body(w) })
	return func() error {
		if _, err := sys.Run(); err != nil {
			return err
		}
		return bodyErr
	}
}

type counter struct{ n int }

var incOp = orca.Op{Name: "inc", ArgBytes: 8, ResBytes: 8,
	Apply: func(s any) any { s.(*counter).n++; return nil }}

// rpc times ops invocations of an object at node 0 from the given node.
func rpc(topo cluster.Topology, caller func(cluster.Topology) cluster.NodeID) func(int) (func() error, error) {
	return func(ops int) (func() error, error) {
		sys := core.NewSystem(core.Config{Topology: topo, Params: cluster.DASParams()})
		c := &counter{}
		obj := sys.RTS.NewObject("probe", 0, c)
		return onNode(sys, caller(topo), func(w *core.Worker) error {
			for i := 0; i < ops; i++ {
				w.Invoke(obj, incOp)
			}
			return counted("invocations", c.n, ops)
		}), nil
	}
}

// bcast times ops totally-ordered writes to an object replicated on every
// node of the paper's 4x4 wide-area shape, issued from cluster 1.
func bcast(seqr func() orca.Sequencer) func(int) (func() error, error) {
	return func(ops int) (func() error, error) {
		sys := core.NewSystem(core.Config{Topology: cluster.DAS(4, 4), Params: cluster.DASParams(), Sequencer: seqr()})
		replicas := make([]*counter, sys.Topo.Total())
		obj := sys.RTS.NewReplicated("probe", func(n cluster.NodeID) any {
			replicas[n] = &counter{}
			return replicas[n]
		})
		loop := onNode(sys, sys.Topo.Node(1, 0), func(w *core.Worker) error {
			for i := 0; i < ops; i++ {
				w.Invoke(obj, incOp)
			}
			return nil
		})
		return func() error {
			if err := loop(); err != nil {
				return err
			}
			for _, r := range replicas {
				if r != nil {
					if err := counted("replica updates", r.n, ops); err != nil {
						return err
					}
				}
			}
			return nil
		}, nil
	}
}

// arqPingPong times ops reliable WAN messages (half round trips) between
// two clusters with the ARQ layer on and no faults.
func arqPingPong(ops int) (func() error, error) {
	sys := core.NewDAS(2, 1)
	sys.RTS.EnableReliability(orca.RelConfig{})
	id := sys.RTS.InternTag(orca.Tag{Op: "probe"})
	a, b := sys.Topo.Node(0, 0), sys.Topo.Node(1, 0)
	var tok any = "tok"
	rounds := ops / 2
	got := 0
	sys.SpawnAt(b, "echo", func(w *core.Worker) {
		for i := 0; i < rounds; i++ {
			w.RecvID(id)
			got++
			w.SendID(a, id, 64, tok)
		}
	})
	return onNode(sys, a, func(w *core.Worker) error {
		for i := 0; i < rounds; i++ {
			w.SendID(b, id, 64, tok)
			w.RecvID(id)
		}
		return counted("echoes", got, rounds)
	}), nil
}

// collective times ops collective calls made by all 16 workers of the 4x4
// shape; allreduce checks every result.
func collective(strategy coll.Strategy, allreduce bool) func(int) (func() error, error) {
	return func(ops int) (func() error, error) {
		sys := core.NewDAS(4, 4)
		comm := coll.New(sys, "probe", strategy)
		n := sys.Topo.Compute()
		want := n * (n - 1) / 2
		sum := func(acc, v any) any {
			if acc == nil { // the fold starts from nil
				return v
			}
			return acc.(int) + v.(int)
		}
		bad := 0
		sys.SpawnWorkers("probe", func(w *core.Worker) {
			for i := 0; i < ops; i++ {
				if !allreduce {
					comm.Barrier(w)
				} else if comm.AllReduce(w, 8, w.Rank(), sum).(int) != want {
					bad++
				}
			}
		})
		return func() error {
			if _, err := sys.Run(); err != nil {
				return err
			}
			return counted("correct allreduce results", n*ops-bad, n*ops)
		}, nil
	}
}

func tiered64Graph() (cluster.Topology, error) {
	t, err := tiered64()
	if err == nil && t.WAN == nil {
		err = fmt.Errorf("%s declares no WAN graph", tiered64Path)
	}
	return t, err
}

// probes is the ladder, layer by layer. Operation counts keep each
// repetition near 0.1 s on a 2-core x86-64 host.
var probes = []probe{
	{name: "sim.probe.event_ns", unit: "ns", ops: 1_000_000, prepare: timerChain(time.Microsecond)},
	{name: "sim.probe.same_instant_ns", unit: "ns", ops: 2_000_000, prepare: timerChain(0)},
	{name: "sim.probe.switch_ns", unit: "ns", ops: 200_000, prepare: func(ops int) (func() error, error) {
		e := sim.NewEngine()
		return pingPong(e, ops, e.Run), nil
	}},
	// One ping-pong per LP: with a single runnable LP the coordinator runs
	// the window inline, and only with both busy do the LP runner threads
	// switch the processes. Each LP makes ops hand-offs.
	{name: "sim.probe.switch_lp_ns", unit: "ns", ops: 10_000, prepare: func(ops int) (func() error, error) {
		root, lps := twoLPs()
		var ran bool
		run := func() error {
			if ran {
				return nil
			}
			ran = true
			return root.Run()
		}
		a, b := pingPong(lps[0], ops, run), pingPong(lps[1], ops, run)
		return func() error {
			if err := a(); err != nil {
				return err
			}
			return b()
		}, nil
	}},
	{name: "sim.probe.window_sync_ns", unit: "ns", ops: 20_000, prepare: crossLP},

	{name: "netsim.probe.lan_hop_ns", unit: "ns", ops: 200_000,
		prepare: hops(das(1, 2), cluster.DASParams(), netBurst, func(t cluster.Topology) (cluster.NodeID, cluster.NodeID, error) {
			return t.Node(0, 0), t.Node(0, 1), nil
		})},
	// The LAN hop again with all ops messages in flight at once: the
	// in-flight records then cannot come from the free lists.
	{name: "netsim.probe.lan_flood_ns", unit: "ns", ops: 200_000,
		prepare: hops(das(1, 2), cluster.DASParams(), 0, func(t cluster.Topology) (cluster.NodeID, cluster.NodeID, error) {
			return t.Node(0, 0), t.Node(0, 1), nil
		})},
	{name: "netsim.probe.mesh_wan_hop_ns", unit: "ns", ops: 100_000, prepare: hops(das(2, 1), cluster.DASParams(), netBurst, firstNodes(0, 1))},
	{name: "netsim.probe.grid_hop_ns", unit: "ns", ops: 50_000, prepare: hops(tiered64Graph, cluster.DASParams(), netBurst, farthestLeaves)},
	{name: "netsim.probe.framed_hop_ns", unit: "ns", ops: 100_000, prepare: hops(das(2, 1), framedParams(), netBurst, firstNodes(0, 1))},
	{name: "netsim.probe.construct_tiered64_us", unit: "us", ops: 200, prepare: func(ops int) (func() error, error) {
		t, err := tiered64Graph()
		if err != nil {
			return nil, err
		}
		return func() error {
			for i := 0; i < ops; i++ {
				// The routed floor matrix is built lazily; ask for it so
				// construction includes it, as core.NewSystem's does.
				if f := netsim.New(sim.NewEngine(), t, cluster.DASParams()).RouteFloor(0, t.Clusters-1); f <= 0 {
					return fmt.Errorf("route floor %v across tiered64", f)
				}
			}
			return nil
		}, nil
	}},

	{name: "orca.probe.rpc_lan_ns", unit: "ns", ops: 100_000, prepare: rpc(cluster.DAS(1, 2), func(t cluster.Topology) cluster.NodeID { return t.Node(0, 1) })},
	{name: "orca.probe.rpc_wan_ns", unit: "ns", ops: 50_000, prepare: rpc(cluster.DAS(2, 1), func(t cluster.Topology) cluster.NodeID { return t.Node(1, 0) })},
	{name: "orca.probe.bcast_central_ns", unit: "ns", ops: 10_000,
		prepare: bcast(func() orca.Sequencer { return orca.NewCentralSequencer(0) })},
	{name: "orca.probe.bcast_rotating_ns", unit: "ns", ops: 10_000,
		prepare: bcast(func() orca.Sequencer { return orca.NewRotatingSequencer() })},
	{name: "orca.probe.bcast_migrating_ns", unit: "ns", ops: 10_000,
		prepare: bcast(func() orca.Sequencer { return orca.NewMigratingSequencer() })},
	{name: "orca.probe.arq_send_ns", unit: "ns", ops: 50_000, prepare: arqPingPong},

	{name: "coll.probe.barrier_flat_ns", unit: "ns", ops: 5_000, prepare: collective(coll.Flat, false)},
	{name: "coll.probe.barrier_widearea_ns", unit: "ns", ops: 5_000, prepare: collective(coll.WideArea, false)},
	{name: "coll.probe.allreduce_flat_ns", unit: "ns", ops: 5_000, prepare: collective(coll.Flat, true)},
	{name: "coll.probe.allreduce_widearea_ns", unit: "ns", ops: 5_000, prepare: collective(coll.WideArea, true)},

	{name: "cluster.probe.all_pairs_cost_tiered64_us", unit: "us", ops: 200, prepare: func(ops int) (func() error, error) {
		t, err := tiered64Graph()
		if err != nil {
			return nil, err
		}
		par := cluster.DASParams()
		extra := par.SoftwareOverhead + par.GatewayCost
		perHop := func(class int) time.Duration { return t.WAN.Classes[class].Latency + extra }
		return func() error {
			for i := 0; i < ops; i++ {
				if m := t.WAN.AllPairsCost(t.Clusters, perHop); len(m) != t.Clusters {
					return fmt.Errorf("all-pairs matrix has %d rows, want %d", len(m), t.Clusters)
				}
			}
			return nil
		}, nil
	}},
}
