package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

const mib = 1 << 20

// usage is a snapshot of the process counters one measured interval is
// the difference of.
type usage struct {
	wall     time.Time
	cpu      time.Duration // user + system
	alloc    uint64        // cumulative heap bytes allocated
	gcCPU    float64       // cumulative GC CPU seconds (runtime estimate)
	gcCycles uint64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return usage{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		gcCycles: s[2].Value.Uint64(),
	}
}

// interval is what one measured call cost the process.
type interval struct {
	wallS, cpuS float64
	peakRSSMB   float64 // VmHWM after the call, reset just before it
	allocMB     float64
	gcCPUS      float64
	gcCycles    float64
}

// resetPeakRSS scopes VmHWM to what follows: the heap is collected and
// returned to the OS, then writing 5 to clear_refs resets the high-water
// mark to the current resident size.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM from /proc/self/status.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) == 3 && string(f[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// measureCall runs fn with the peak-RSS mark reset before it and returns
// its cost. A panic in fn is returned as its error, so one broken op is
// counted as failed instead of ending the run.
func measureCall(fn func() error) (iv interval, err error) {
	if err := resetPeakRSS(); err != nil {
		return iv, err
	}
	before := snapshot()
	err = protect(fn)
	after := snapshot()
	iv = interval{
		wallS:    after.wall.Sub(before.wall).Seconds(),
		cpuS:     (after.cpu - before.cpu).Seconds(),
		allocMB:  float64(after.alloc-before.alloc) / mib,
		gcCPUS:   after.gcCPU - before.gcCPU,
		gcCycles: float64(after.gcCycles - before.gcCycles),
	}
	rss, rerr := peakRSSMB()
	if err == nil {
		err = rerr
	}
	iv.peakRSSMB = rss
	return iv, err
}

func protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// median of vs; vs must be non-empty. The input is not reordered.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// refWork is how many elements each goroutine of the reference kernel
// sorts, hashes and links.
const refWork = 1 << 20

// The reference kernel's nominal wall and user+sys CPU times: round
// figures near its median times on a 2-vCPU Xeon (2.1 GHz). A reported
// time is the measured time scaled by these over the kernel's median
// times in the same run: seconds at the nominal host speed.
const (
	refNominalWallS = 0.45
	refNominalCPUS  = 0.85
)

// refFlag makes the benchmark binary run the reference kernel once and
// print its time instead of a benchmark run.
const refFlag = "--reference-kernel"

// hostSpeed samples the reference kernel during a run. The host's speed
// drifts on a shared machine — by half within minutes, for the wall and
// the CPU time of the same work alike — and the kernel's time drifts with
// it, so the run's times are reported relative to the kernel's median
// time in the same run.
type hostSpeed struct {
	wallS, cpuS []float64
	err         error // the first failed sample
}

// sample times the reference kernel once, in a fresh child process, so
// that neither the pipeline's heap nor its garbage collector's state
// takes part in it.
func (h *hostSpeed) sample() {
	if h.err != nil {
		return
	}
	exe, err := os.Executable()
	if err != nil {
		h.err = fmt.Errorf("reference kernel: %w", err)
		return
	}
	out, err := exec.Command(exe, refFlag).Output()
	var w, c float64
	if err == nil {
		_, err = fmt.Sscan(string(out), &w, &c)
	}
	if err != nil {
		h.err = fmt.Errorf("reference kernel: %w", err)
		return
	}
	h.wallS, h.cpuS = append(h.wallS, w), append(h.cpuS, c)
}

// wall scales a measured wall time to the reference host's speed.
func (h *hostSpeed) wall(s float64) float64 { return s * refNominalWallS / median(h.wallS) }

// cpu scales a measured CPU time to the reference host's speed.
func (h *hostSpeed) cpu(s float64) float64 { return s * refNominalCPUS / median(h.cpuS) }

// referenceKernel runs a fixed piece of work that uses none of this
// repository's code on every P at once and prints its wall and CPU
// seconds. Each goroutine fills and probes a map, sorts a slice and
// builds and walks a linked list, the kinds of work the pipeline does.
func referenceKernel() {
	n := runtime.GOMAXPROCS(0)
	sums := make([]uint64, n)
	before := snapshot()
	var wg sync.WaitGroup
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = refOnce(uint64(g) + 1)
		}()
	}
	wg.Wait()
	after := snapshot()
	fmt.Println(after.wall.Sub(before.wall).Seconds(), (after.cpu - before.cpu).Seconds())
}

type refNode struct {
	next *refNode
	v    [5]uint64
}

func refOnce(x uint64) uint64 {
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	m := make(map[uint64]uint64)
	xs := make([]uint64, refWork)
	for i := range xs {
		xs[i] = next()
		m[xs[i]%(refWork/2)] += xs[i]
	}
	slices.Sort(xs)
	var head *refNode
	for i, x := range xs {
		head = &refNode{next: head, v: [5]uint64{x, uint64(i)}}
	}
	var sum uint64
	for p := head; p != nil; p = p.next {
		sum += p.v[0] ^ m[p.v[1]%(refWork/2)]
	}
	return sum
}
