// Command pipebench measures the Propeller step of this repository's
// pipeline on one workload: the wall time, CPU time and peak resident
// memory of Phases 1-4, the layout quality they buy, and — in a separate
// traced run — the time and counts of every layer the step calls. Times
// are scaled to a nominal host speed by a reference kernel timed in the
// same run (see hostSpeed).
//
// It drives the pipeline from outside through its public entry points, one
// batch job per run in a single process with GOMAXPROCS equal to the
// number of CPUs. Run it through run.sh from the repository root:
//
//	bash pipebench/run.sh --workload spec-long --seed 3 --seconds 10 --trace 0
//
// The last line of standard output is the result: one JSON object with
// keys correct, attempted, failed and metrics. The line before it records
// the seed, each measured program's spec, the CPU count, Go version and
// per-op details. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"propeller/internal/sim"
	"propeller/internal/workload"
)

type config struct {
	window    time.Duration // how long steps are measured
	trace     bool
	setups    int    // set-ups per run; setup_s is their median
	minOps    int    // steps measured even if the window has closed; with a zero window, every step
	spansPath string // where a traced run writes its spans
}

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

// info is the run's record beside the result: what ran, where, and how
// each op went.
type info struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Specs      []workload.Spec    `json:"specs"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Go         string             `json:"go"`
	Commit     string             `json:"commit"`
	Setups     int                `json:"setups"`
	Ops        int                `json:"ops"`
	TracedOps  int                `json:"traced_ops"`
	FailedFrac float64            `json:"failed_frac"`
	OpWallS    []float64          `json:"op_wall_s"`
	OpCPUS     []float64          `json:"op_cpu_s"`
	OpRSSMB    []float64          `json:"op_peak_rss_mb"`
	SetupS     []float64          `json:"setup_s"`
	RefWallS   []float64          `json:"ref_wall_s"`
	RefCPUS    []float64          `json:"ref_cpu_s"`
	Errors     []string           `json:"errors,omitempty"`
	StepSpans  map[string]float64 `json:"step_spans_s,omitempty"`
	Dominant   string             `json:"dominant_step_span,omitempty"`
	SpansFile  string             `json:"spans_file,omitempty"`
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == refFlag {
		runtime.GOMAXPROCS(runtime.NumCPU())
		referenceKernel()
		return
	}
	name := flag.String("workload", "", "workload: wsc-interproc, spec-long or wsc-edit")
	seed := flag.Int64("seed", 0, "replaces the workload's catalog seed (default: the catalog seed)")
	seconds := flag.Float64("seconds", 10, "how long Propeller steps are measured")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	d, err := lookup(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(2)
	}
	sd := d.catalog().Seed
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			sd = *seed
		}
	})
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := config{
		window:    time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		setups:    3,
		minOps:    3 + *trace, // trace mode: at least two traced and two untraced
		spansPath: filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", d.name, sd)),
	}
	if d.edit {
		// The warm caches grow with every round, so wsc-edit runs a fixed
		// number of rounds, one per second of --seconds: every run measures
		// the same cache states, whatever the host's speed.
		cfg.window, cfg.minOps = 0, max(cfg.minOps, int(math.Round(*seconds)))
	}
	res, inf, err := run(d, sd, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(inf); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// opRecord is one measured Propeller step.
type opRecord struct {
	iv     interval
	sum    summary
	out    *stepOut // kept by the first and the latest good op only
	traced bool
	run    int // the tracer's run id of a traced op
	err    error
}

// runOps measures steps until the window closes, at least minOps of them.
// In trace mode every second op is traced, so traced and untraced steps
// interleave under the same conditions. A failing op is recorded, never
// fatal.
func runOps(cfg config, tr *tracer, before func(), step func(tr *tracer) (*stepOut, error)) []opRecord {
	var ops []opRecord
	deadline := time.Now().Add(cfg.window)
	for i := 0; i < cfg.minOps || time.Now().Before(deadline); i++ {
		rec := opRecord{traced: cfg.trace && i%2 == 1}
		var optr *tracer
		if rec.traced {
			optr = tr
		}
		if before != nil {
			before()
		}
		var out *stepOut
		rec.iv, rec.err = measureCall(func() (err error) {
			out, err = step(optr)
			return err
		})
		if rec.traced {
			rec.run = tr.run
		}
		if rec.err == nil {
			if prev := lastGood(ops); prev != nil && prev != firstGood(ops) {
				prev.out = nil
			}
			rec.sum, rec.out = out.sum, out
		}
		ops = append(ops, rec)
	}
	return ops
}

// measured is what one program's set-ups and steps left behind. It keeps
// no step output and no program state, so the next program is measured
// without them in memory.
type measured struct {
	ops        []opRecord
	setupS     []float64
	setupRuns  []int
	evalRun    int         // the tracer's run id of the output check's eval run
	optEval    *sim.Result // nil when the output check failed
	baseCycles uint64      // the baseline eval run's cycles
	// wsc-edit: the instructions the set-up's profiling run retired.
	profileInsts uint64
}

// measure sets the program up setups times, then runs its steps under
// cfg and checks their outputs. The reference kernel runs before each
// set-up and before each step (on wsc-edit, whose rounds are short,
// before every third round).
func measure(d def, spec workload.Spec, setups int, cfg config, tr *tracer, host *hostSpeed) (*measured, error) {
	m := &measured{evalRun: -1}
	var s *state
	var err error
	for i := 0; i < setups; i++ {
		s = nil // let the previous set-up's state be collected
		runtime.GC()
		host.sample()
		start := time.Now()
		if s, err = setup(d, spec, tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.setupS = append(m.setupS, time.Since(start).Seconds())
		if tr != nil {
			m.setupRuns = append(m.setupRuns, tr.run)
		}
	}
	m.baseCycles, m.profileInsts = s.base.Cycles, s.profileInsts

	var ops []opRecord
	if d.edit {
		ops = runOps(cfg, tr, func() {
			if s.nextEdit(); s.round%3 == 1 {
				host.sample()
			}
		}, s.warmRound)
	} else {
		ops = runOps(cfg, tr, host.sample, func(optr *tracer) (*stepOut, error) {
			if optr != nil {
				return s.traced(optr)
			}
			return s.optimize()
		})
		checkSameBinary(ops)
	}
	m.ops = ops
	first, last := withOutput(ops)
	if first == nil {
		return nil, fmt.Errorf("every Propeller step failed: %v", ops[0].err)
	}

	// Output checks, outside the measured steps; a failure marks the step
	// whose output failed it. The cold workloads build the same binary
	// every step, so the first good step's is evaluated against the
	// set-up's baseline. On wsc-edit the last round's binary is evaluated
	// against a baseline build of the same edited program, and its
	// artifacts are compared with a cold rebuild's.
	evalOp, base := first, s.base
	if d.edit {
		evalOp, base = nil, nil
		if last.err == nil && last == &ops[len(ops)-1] {
			// The program now holds every edit applied so far, the last
			// round's included.
			evalOp = last
			if base, err = s.editedBaseline(); err != nil {
				last.err = fmt.Errorf("edited baseline: %w", err)
			} else if cold, err := s.coldRebuild(); err != nil {
				last.err = fmt.Errorf("cold rebuild: %w", err)
			} else if same, err := sameOutput(last.out, cold); err != nil || !same {
				last.err = fmt.Errorf("last warm round differs from a cold rebuild (err %v)", err)
			}
		}
	}
	if evalOp != nil && evalOp.err == nil {
		err = tr.root("eval", func() (err error) {
			m.optEval, err = evalRun(evalOp.out.opt.Binary, tr)
			return err
		})
		if tr != nil {
			m.evalRun = tr.run
		}
		switch {
		case err != nil:
			evalOp.err = fmt.Errorf("optimized eval run: %w", err)
		case m.optEval.Exit != base.Exit:
			evalOp.err = fmt.Errorf("optimized binary halted with checksum %d, baseline %d", m.optEval.Exit, base.Exit)
		}
		if evalOp.err != nil {
			m.optEval = nil // the failed output's counters are not reported
		}
	}
	for i := range ops {
		ops[i].out = nil
	}
	return m, nil
}

func run(d def, seed int64, cfg config) (*result, *info, error) {
	specs, err := specsFor(d, d.seeds(seed)...)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: sizing the workload: %w", d.name, err)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// The programs are measured one after the other, each with its share
	// of the set-ups, the window and the minimum number of steps. The
	// reference kernel runs once more after the last step.
	host := &hostSpeed{}
	n := len(specs)
	per := cfg
	per.window /= time.Duration(n)
	per.minOps = (cfg.minOps + n - 1) / n
	var ms []*measured
	var ops []opRecord
	var setupS []float64
	var setupRuns []int
	for _, spec := range specs {
		m, err := measure(d, spec, max(1, cfg.setups/n), per, tr, host)
		if err != nil {
			return nil, nil, fmt.Errorf("%s (seed %d): %w", d.name, spec.Seed, err)
		}
		ms = append(ms, m)
		ops = append(ops, m.ops...)
		setupS = append(setupS, m.setupS...)
		setupRuns = append(setupRuns, m.setupRuns...)
	}
	if host.sample(); host.err != nil {
		return nil, nil, fmt.Errorf("%s: %w", d.name, host.err)
	}

	inf := &info{
		Workload: d.name, Seed: seed, Specs: specs,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit(),
		Setups: len(setupS), SetupS: setupS, RefWallS: host.wallS, RefCPUS: host.cpuS,
	}
	res, good := tally(ops, inf)
	if len(good) == 0 {
		return nil, nil, fmt.Errorf("%s: no Propeller step passed its checks: %v", d.name, inf.Errors)
	}

	// The output counters come from the first program's output check: on
	// the cold workloads, the catalog program's.
	first := ms[0]
	if !cfg.trace {
		var wall, cpu, rss []float64
		for _, op := range good {
			wall = append(wall, op.iv.wallS)
			cpu = append(cpu, op.iv.cpuS)
			rss = append(rss, op.iv.peakRSSMB)
		}
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
		put("setup_s", "s", host.wall(median(setupS)))
		put("optimize_s", "s", host.wall(median(wall)))
		put("optimize_cpu_s", "s", host.cpu(median(cpu)))
		put("peak_rss_mb", "MB", median(rss))
		if !d.edit {
			if first.optEval != nil {
				put("speedup_pct", "%", speedupPct(first.baseCycles, first.optEval.Cycles))
			}
			return res, inf, nil
		}
		// One more op: core.Optimize on the unedited catalog program.
		speedup, err := catalogSpeedup(d)
		if res.count(inf, err) {
			put("speedup_pct", "%", speedup)
		}
		return res, inf, nil
	}

	lay := layers{tr: tr, setupRuns: setupRuns, evalRun: first.evalRun, optEval: first.optEval,
		profileInsts: first.profileInsts, host: host}
	for _, op := range good {
		if op.traced {
			lay.traced = append(lay.traced, op)
		} else {
			lay.untraced = append(lay.untraced, op)
		}
	}
	if len(lay.traced) == 0 || len(lay.untraced) == 0 {
		return nil, nil, fmt.Errorf("%s: need a good traced and untraced step; errors: %v", d.name, inf.Errors)
	}
	res.Metrics = lay.metrics()
	inf.StepSpans, inf.Dominant = lay.stepSpans()
	if err := tr.write(cfg.spansPath); err != nil {
		return nil, nil, err
	}
	inf.SpansFile = cfg.spansPath
	return res, inf, nil
}

// checkSameBinary fails every cold step whose optimized binary differs
// from the first untraced core.Optimize result: the inputs are the same,
// so the traced decomposition and every repeat must reproduce it.
func checkSameBinary(ops []opRecord) {
	ref := ""
	for _, op := range ops {
		if op.err == nil && !op.traced {
			ref = op.sum.buildID
			break
		}
	}
	for i := range ops {
		if op := &ops[i]; op.err == nil && ref != "" && op.sum.buildID != ref {
			kind := "repeated core.Optimize"
			if op.traced {
				kind = "traced decomposition"
			}
			op.err = fmt.Errorf("%s built %s, core.Optimize built %s", kind, op.sum.buildID, ref)
		}
	}
}

// tally counts attempted and failed ops into the result and the info
// line, and returns the ops that succeeded.
func tally(ops []opRecord, inf *info) (*result, []opRecord) {
	res := &result{Metrics: map[string]metric{}}
	var good []opRecord
	for _, op := range ops {
		inf.OpWallS = append(inf.OpWallS, op.iv.wallS)
		inf.OpCPUS = append(inf.OpCPUS, op.iv.cpuS)
		inf.OpRSSMB = append(inf.OpRSSMB, op.iv.peakRSSMB)
		if op.traced {
			inf.TracedOps++
		}
		if res.count(inf, op.err) {
			good = append(good, op)
		}
	}
	return res, good
}

// count records one attempted op that ended with err, and reports whether
// it succeeded.
func (r *result) count(inf *info, err error) bool {
	r.Attempted++
	if err != nil {
		r.Failed++
		inf.Errors = append(inf.Errors, err.Error())
	}
	r.Correct = r.Failed == 0
	inf.Ops = r.Attempted
	inf.FailedFrac = float64(r.Failed) / float64(r.Attempted)
	return err == nil
}

// withOutput returns the first and the last op that kept their output.
func withOutput(ops []opRecord) (first, last *opRecord) {
	for i := range ops {
		if ops[i].out != nil {
			if first == nil {
				first = &ops[i]
			}
			last = &ops[i]
		}
	}
	return first, last
}

func firstGood(ops []opRecord) *opRecord {
	for i := range ops {
		if ops[i].err == nil {
			return &ops[i]
		}
	}
	return nil
}

func lastGood(ops []opRecord) *opRecord {
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i].err == nil {
			return &ops[i]
		}
	}
	return nil
}
