package main

import (
	"encoding/binary"
	"runtime"
	"syscall"
	"time"
)

// The host this benchmark runs on is a share of a machine: its speed moves
// between two levels about 1.6× apart, and a level holds for seconds to
// minutes, often for the whole of a run, so the CPU time of the same run in
// two processes differs as much as a real regression. The timed loop
// therefore measures a fixed calibration kernel between its visits and
// reports every run's CPU time relative to the kernel's at the time,
// rescaled to a nominal kernel cost: a normalised second is the CPU time
// the run would take on a host where the kernel costs calibrationNominal.
// The kernel is the benchmark's own code, so a change to the simulator
// moves the run and not the kernel.

// calibrationNominal is the kernel's cost on the reference host, the unit
// normalised times are scaled by. It is about what the kernel costs on a
// 2-vCPU Xeon VM when the host is fast, so normalised seconds read about
// like CPU seconds there.
const calibrationNominal = 30 * time.Millisecond

// A calibration point runs the kernel at least calibrationReps times, and
// on until it has spent calibrationShare of the host time of what it
// follows, so that the point after a run of seconds is as steady as that
// run. The point is the kernel's mean CPU time; every repetition starts
// after a collection, so that none pays for another's garbage.
const (
	calibrationReps  = 1
	calibrationShare = 0.08
)

// calibrationWindow is how far from a measurement the calibration points
// that normalise it may lie. A single point is noisy, a speed level lasts
// seconds, and a window this wide holds some ten points around a short run.
const calibrationWindow = 2 * time.Second

// window is the host time span of the pass or visit a measurement was
// taken in.
type window struct{ from, to time.Time }

// calPoint is one calibration: the kernel's total CPU time over n
// repetitions, centred on a host time.
type calPoint struct {
	at  time.Time
	sum time.Duration
	n   int
}

// calibrator keeps every calibration point of a timed loop.
type calibrator struct {
	origin time.Time
	points []calPoint
}

// measure adds a calibration point after something that took the given
// host time.
func (c *calibrator) measure(after time.Duration) {
	spend := time.Duration(calibrationShare * float64(after))
	t0 := time.Now()
	p := calPoint{}
	for p.n < calibrationReps || p.sum < spend {
		runtime.GC()
		c0 := cpuTime()
		kernel()
		p.sum += cpuTime() - c0
		p.n++
	}
	p.at = t0.Add(time.Since(t0) / 2)
	c.points = append(c.points, p)
}

// ref is the kernel's mean CPU time over the calibration points within
// calibrationWindow of w, which include the points just before and after
// it.
func (c *calibrator) ref(w window) time.Duration {
	from, to := w.from.Add(-calibrationWindow), w.to.Add(calibrationWindow)
	var sum time.Duration
	n := 0
	for _, p := range c.points {
		if p.at.After(from) && p.at.Before(to) {
			sum += p.sum
			n += p.n
		}
	}
	if n == 0 {
		return calibrationNominal
	}
	return sum / time.Duration(n)
}

// timing is a CPU time with the span it was taken in and the calibration
// it is normalised by.
type timing struct {
	cpu, ref time.Duration
	win      window
}

// norm is the CPU time on the reference host, in seconds.
func (t timing) norm() float64 {
	return t.cpu.Seconds() * float64(calibrationNominal) / float64(t.ref)
}

// calEvent is one timer of the kernel's event loop.
type calEvent struct {
	at uint64
	fn func()
}

type calNode struct {
	next *calNode
	key  uint64
}

// kernelSink keeps the kernel's result live.
var kernelSink uint64

// arena is a ring of 64-byte cells in random order, larger than a core's
// caches, that the kernel walks as the simulator touches the stacks and
// buffers of thousands of processes; each cell begins with the index of the
// next. buildArena makes it once, before any timing, outside the Go heap,
// so that it neither moves the collector's pacing of the runs nor costs it
// a scan.
var arena []byte

const (
	cellBytes = 64
	cells     = 1 << 17 // 8 MiB
)

func xorshift(x *uint64) uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return *x
}

func buildArena() error {
	mem, err := syscall.Mmap(-1, 0, cells*cellBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return err
	}
	order := make([]uint32, cells)
	for i := range order {
		order[i] = uint32(i)
	}
	x := uint64(0x2545f4914f6cdd1d)
	for i := cells - 1; i > 0; i-- {
		j := xorshift(&x) % uint64(i+1)
		order[i], order[j] = order[j], order[i]
	}
	for i, c := range order {
		binary.LittleEndian.PutUint32(mem[int(c)*cellBytes:], order[(i+1)%cells])
	}
	arena = mem
	return nil
}

// kernel is a fixed amount of work shaped like the simulator's: a binary
// heap of timed closures, a table of short linked lists that the callbacks
// extend, small allocations, a walk through memory that does not fit in a
// cache, and a hand-off to another goroutine and back every few events, as
// a simulated process blocks and resumes.
func kernel() {
	const (
		pending = 1024
		events  = 25000
		keys    = 512
		steps   = 4
	)
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { return xorshift(&x) }
	var cell uint32
	var table [keys]*calNode
	var sum uint64
	h := make([]calEvent, 0, pending+1)
	push := func(e calEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].at <= h[i].at {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() calEvent {
		top := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			l, m := 2*i+1, i
			if l < n && h[l].at < h[m].at {
				m = l
			}
			if l+1 < n && h[l+1].at < h[m].at {
				m = l + 1
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	schedule := func(now uint64) {
		k := next() % keys
		push(calEvent{at: now + next()%1000, fn: func() {
			for j := 0; j < steps; j++ {
				cell = binary.LittleEndian.Uint32(arena[int(cell)*cellBytes:])
				sum += uint64(cell)
			}
			table[k] = &calNode{next: table[k], key: k}
			for n := table[k]; n != nil && n.key == k; n = n.next {
				sum += n.key
				if sum&7 == 0 {
					break
				}
			}
		}})
	}
	ping, pong, done := make(chan uint64), make(chan uint64), make(chan struct{})
	go func() {
		defer close(done)
		for v := range ping {
			pong <- v + 1
		}
	}()
	for i := 0; i < pending; i++ {
		schedule(0)
	}
	for i := 0; i < events; i++ {
		e := pop()
		e.fn()
		schedule(e.at)
		if i%16 == 0 {
			ping <- e.at
			sum += <-pong
		}
		if i%2048 == 0 {
			table = [keys]*calNode{}
		}
	}
	close(ping)
	<-done
	kernelSink = sum
}
