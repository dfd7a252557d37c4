package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"

	"propeller/internal/bbaddrmap"
	"propeller/internal/buildsys"
	"propeller/internal/core"
	"propeller/internal/layoutfile"
	"propeller/internal/linker"
	"propeller/internal/objfile"
	"propeller/internal/profile"
	"propeller/internal/sim"
	"propeller/internal/workload"
	"propeller/internal/wpa"
)

const (
	lbrPeriod  = 211
	trainInsts = 400_000_000 // budgets no workload reaches; hitting one is a failure
	evalInsts  = 800_000_000
	editFrac   = 0.01
	// probeRequests sizes the short functional run that measures a
	// generated program's instructions per request.
	probeRequests = 1000
)

// def is one benchmark workload: a catalog program and the shape of the
// Propeller step run on it. README.md records why each was chosen.
type def struct {
	name      string
	catalog   func() workload.Spec
	requestsX int64 // multiplier on the catalog's request count
	interProc bool
	// edit replaces the cold core.Optimize step with warm edit rounds:
	// each applies EditFraction and re-optimizes against the caches the
	// setup populated, with the setup's profile aggregate.
	edit     bool
	executor *buildsys.Executor // nil: buildsys.Distributed()
}

var defs = []def{
	{name: "wsc-interproc", catalog: workload.Search, requestsX: 1, interProc: true},
	{name: "spec-long", catalog: mcf, requestsX: 10},
	{name: "wsc-edit", catalog: workload.Superroot, requestsX: 1, edit: true,
		executor: &buildsys.Executor{Slots: buildsys.DistributedSlots, MemLimit: buildsys.SuperrootMemLimit}},
}

func mcf() workload.Spec {
	for _, s := range workload.SPECInt() {
		if s.Name == "505.mcf" {
			return s
		}
	}
	panic("505.mcf missing from the catalog")
}

func lookup(name string) (def, error) {
	for _, d := range defs {
		if d.name == name {
			return d, nil
		}
	}
	return def{}, fmt.Errorf("unknown workload %q", name)
}

func (d def) options() core.Options {
	return core.Options{Executor: d.executor, InterProc: d.interProc}
}

// derivedSeedOffset gives a cold workload's third program its seed: the
// run's seed plus this, a seed that neither the catalog nor a small --seed
// uses.
const derivedSeedOffset = 1_000_000_007

// seeds returns the Spec.Seed of each program one run measures. wsc-edit
// measures the seed's program alone: its rounds carry caches over. A cold
// workload measures three programs, each with a third of the run: the
// catalog program, whose output check also gives speedup_pct, the seed's
// program and one more whose seed is derived from the seed. Generated
// programs differ in how much work a step does (by up to 15% on Search
// between seeds), so one program a run would make that difference the
// run's spread.
func (d def) seeds(seed int64) []int64 {
	if d.edit {
		return []int64{seed}
	}
	return []int64{d.catalog().Seed, seed, seed + derivedSeedOffset}
}

// specsFor returns the workload's spec under each seed. Generated programs
// differ in work per request (2x across seeds on 505.mcf), so for any seed
// but the catalog's the request count is rescaled until a run retires
// about as many instructions as the catalog program does; otherwise the
// seed would change how much work a run measures. wsc-edit keeps the
// catalog's count: its rounds run no simulation, so the count sizes only
// its set-up.
func specsFor(d def, seeds ...int64) ([]workload.Spec, error) {
	cat := d.catalog()
	var want float64 // the catalog program's instructions per request
	specs := make([]workload.Spec, len(seeds))
	for i, seed := range seeds {
		spec := cat
		spec.Seed = seed
		spec.Requests = cat.Requests * d.requestsX
		if seed != cat.Seed && !d.edit {
			var err error
			if want == 0 {
				if want, err = instsPerRequest(d, cat); err != nil {
					return nil, err
				}
			}
			got, err := instsPerRequest(d, spec)
			if err != nil {
				return nil, err
			}
			spec.Requests = int64(math.Round(float64(spec.Requests) * want / got))
		}
		specs[i] = spec
	}
	return specs, nil
}

func instsPerRequest(d def, spec workload.Spec) (float64, error) {
	spec.Requests = probeRequests
	g, err := workload.Generate(spec)
	if err != nil {
		return 0, err
	}
	b, err := core.BuildBaseline(g.Core, d.options())
	if err != nil {
		return 0, err
	}
	m, err := sim.Load(b.Binary)
	if err != nil {
		return 0, err
	}
	r, err := m.Run(sim.Config{MaxInsts: trainInsts, DisableUarch: true})
	if err != nil {
		return 0, err
	}
	return float64(r.Insts) / probeRequests, nil
}

// state is one set-up workload, ready for measured steps.
type state struct {
	d     def
	prog  *workload.Program // Core holds the PGO+ThinLTO-optimized modules
	opts  core.Options
	train core.RunSpec
	base  *sim.Result // baseline eval run

	// wsc-edit only: the caches and profile aggregate the cold pipeline
	// left behind, the number of edits applied, and the instructions its
	// profiling run retired.
	warm         core.Options
	agg          *wpa.Aggregate
	round        int
	profileInsts uint64
}

// setup generates the program, prepares it with PGO+ThinLTO, builds and
// runs the baseline; on wsc-edit it also runs the cold pipeline that
// populates every cache the warm rounds reuse.
func setup(d def, spec workload.Spec, tr *tracer) (*state, error) {
	s := &state{d: d, opts: d.options(), train: core.RunSpec{MaxInsts: trainInsts, LBRPeriod: lbrPeriod}}
	s.opts.HugePages = spec.HugePages
	err := tr.root("setup", func() error {
		var raw *workload.Program
		if err := tr.do("workload.generate", func() (err error) {
			raw, err = workload.Generate(spec)
			return err
		}); err != nil {
			return err
		}
		if err := tr.do("pgo.prepare", func() error {
			mods, _, err := core.PreparePGO(raw.Core, s.train, s.opts, core.PGOOptions{})
			if err != nil {
				return err
			}
			raw.Core = &core.Program{Name: raw.Core.Name, Modules: mods, Entry: raw.Core.Entry}
			return nil
		}); err != nil {
			return err
		}
		s.prog = raw
		var base *core.BuildResult
		if err := tr.do("core.baseline_build", func() (err error) {
			base, err = core.BuildBaseline(s.prog.Core, s.opts)
			return err
		}); err != nil {
			return err
		}
		var err error
		if s.base, err = evalRun(base.Binary, tr); err != nil {
			return fmt.Errorf("baseline eval run: %w", err)
		}
		if !d.edit {
			return nil
		}
		s.warm = s.opts
		s.warm.IRCache, s.warm.ObjCache = buildsys.NewCache(), buildsys.NewCache()
		s.warm.WPA = wpa.Config{Cache: buildsys.NewCache(), ProfileEpoch: "release"}
		out, err := s.pipeline(s.warm, tr)
		if err != nil {
			return fmt.Errorf("cold pipeline: %w", err)
		}
		s.profileInsts = out.sum.profileInsts
		return nil
	})
	return s, err
}

// evalRun executes bin on the simulator without sampling.
func evalRun(bin *objfile.Binary, tr *tracer) (*sim.Result, error) {
	var m *sim.Program
	if err := tr.do("sim.load", func() (err error) {
		m, err = sim.Load(bin)
		return err
	}); err != nil {
		return nil, err
	}
	var r *sim.Result
	err := tr.do("sim.eval", func() (err error) {
		r, err = m.Run(sim.Config{MaxInsts: evalInsts})
		return err
	})
	return r, err
}

// stepOut is what one Propeller step produced: the optimized build and
// layout the output checks need, and the numbers the metrics need.
type stepOut struct {
	opt  *core.BuildResult
	wres *wpa.Result
	sum  summary
}

// summary is what the metrics need from one step. Only the first and the
// latest good step keep their full output, so memory does not grow with
// the number of steps measured.
type summary struct {
	buildID      string
	wpa          wpa.Stats
	profileInsts uint64 // 0 on a warm round
	actions      int    // each phase's build actions plus its link
	nHot         int
	hotReused    int
	irCacheB     int64
	objHitFrac   float64
	link         linker.Stats
	model        modeled
}

// modeled is the cost model's view of one step, computed as core.Optimize
// computes Result.Phase2..4: modeled seconds and the Phase-3 peak bytes.
type modeled struct {
	phase2S, phase3S, phase4S float64
	phase3B                   int64
}

// optimize is the untraced Propeller step of the cold workloads: the
// public core.Optimize entry point with fresh caches.
func (s *state) optimize() (*stepOut, error) {
	res, err := core.Optimize(s.prog.Core, s.train, s.opts)
	if err != nil {
		return nil, err
	}
	return &stepOut{opt: res.Optimized, sum: summary{buildID: res.Optimized.Binary.BuildID}}, nil
}

// nextEdit applies the next developer edit (wsc-edit); it is not part of
// the measured step.
func (s *state) nextEdit() {
	s.round++
	workload.EditFraction(s.prog, editFrac, s.round)
}

// warmRound re-optimizes the edited program against the warm caches with
// the release's profile aggregate.
func (s *state) warmRound(tr *tracer) (*stepOut, error) {
	var out *stepOut
	err := tr.root("step", func() (err error) {
		out, err = s.pipeline(s.warm, tr)
		return err
	})
	return out, err
}

// traced runs the cold step as the calls core.Optimize is made of, each
// inside a span; with fresh caches it must produce Optimize's binary.
func (s *state) traced(tr *tracer) (*stepOut, error) {
	var out *stepOut
	err := tr.root("step", func() (err error) {
		opts := s.opts
		opts.IRCache, opts.ObjCache = buildsys.NewCache(), buildsys.NewCache()
		out, err = s.pipeline(opts, tr)
		return err
	})
	return out, err
}

// pipeline runs Phases 1-4 through the public calls core.Optimize is made
// of. Until wsc-edit's state holds the release's profile aggregate, it
// profiles the metadata binary; after that it lays the binary out from
// the aggregate.
func (s *state) pipeline(opts core.Options, tr *tracer) (*stepOut, error) {
	out := &stepOut{}
	obj0 := opts.ObjCache.Stats()
	var meta *core.BuildResult
	if err := tr.do("core.build_meta", func() (err error) {
		meta, err = core.BuildWithMetadata(s.prog.Core, opts)
		return err
	}); err != nil {
		return nil, err
	}
	var irKeys []string
	_ = tr.do("core.ir_cache", func() error { // cannot fail
		irKeys = core.Phase1CacheIR(s.prog.Core, opts.IRCache)
		return nil
	})
	// core.Optimize returns the profile in its Result, so the profile is
	// live until the step ends; prof is kept live as long here, so traced
	// and untraced steps leave the garbage collector the same work.
	var prof *profile.Profile
	if s.agg == nil {
		var run *sim.Result
		if err := tr.do("sim.profile", func() (err error) {
			prof, run, err = core.CollectProfile(meta.Binary, s.train, false)
			return err
		}); err != nil {
			return nil, err
		}
		out.sum.profileInsts = run.Insts
		if s.d.edit {
			// wsc-edit's cold pipeline: keep the aggregate for the rounds.
			if err := tr.do("wpa.aggregate", func() error {
				m, err := bbaddrmap.Decode(meta.Binary.BBAddrMap)
				if err != nil {
					return err
				}
				s.agg, err = wpa.BuildAggregate(m, prof, wpa.Config{})
				return err
			}); err != nil {
				return nil, err
			}
		} else if err := tr.do("wpa.analyze", func() (err error) {
			out.wres, err = core.Analyze(meta.Binary, prof, opts)
			return err
		}); err != nil {
			return nil, err
		}
	}
	if s.agg != nil {
		if err := tr.do("wpa.analyze", func() error {
			m, err := bbaddrmap.Decode(meta.Binary.BBAddrMap)
			if err != nil {
				return err
			}
			out.wres, err = wpa.AnalyzeAggregate(m, s.agg, opts.WPA)
			return err
		}); err != nil {
			return nil, err
		}
	}
	sum := &out.sum
	if err := tr.do("core.relink", func() (err error) {
		out.opt, sum.nHot, _, err = core.Relink(s.prog.Core, irKeys, out.wres, opts)
		return err
	}); err != nil {
		return nil, err
	}
	obj1 := opts.ObjCache.Stats()
	if n := (obj1.Hits - obj0.Hits) + (obj1.Misses - obj0.Misses); n > 0 {
		sum.objHitFrac = float64(obj1.Hits-obj0.Hits) / float64(n)
	}
	sum.buildID = out.opt.Binary.BuildID
	sum.wpa = out.wres.Stats
	sum.actions = meta.Exec.Actions + 1 + out.opt.Exec.Actions + 1
	sum.hotReused = out.opt.HotReused
	sum.irCacheB = opts.IRCache.Stats().Bytes
	sum.link = *out.opt.Link
	sum.model = modeled{
		phase2S: meta.Exec.Makespan + meta.Linking,
		phase3S: core.Phase3Makespan(out.wres.Stats, opts.WPA.Workers),
		phase3B: out.wres.Stats.ModeledBytes,
		phase4S: out.opt.Exec.Makespan + out.opt.Linking,
	}
	runtime.KeepAlive(prof)
	return out, nil
}

// editedBaseline builds and runs the baseline of the current (edited)
// program, which wsc-edit's last round is checked against.
func (s *state) editedBaseline() (*sim.Result, error) {
	b, err := core.BuildBaseline(s.prog.Core, s.opts)
	if err != nil {
		return nil, err
	}
	return evalRun(b.Binary, nil)
}

// catalogSpeedup is wsc-edit's speedup_pct: the modeled cycle reduction a
// cold core.Optimize buys on the eval run of the unedited catalog program,
// the workload's spec at its catalog seed, whatever the run's seed. (The
// cold workloads measure the catalog program anyway and take it from that
// program's output check.) The speedup differs between generated programs
// (from -0.2% to 3% across seeds on 505.mcf), so a per-seed figure would
// spread more than any bound that can catch a loss of layout quality; on
// one program it is exact.
func catalogSpeedup(d def) (speedup float64, err error) {
	err = protect(func() error {
		d.edit = false
		specs, err := specsFor(d, d.catalog().Seed)
		if err != nil {
			return err
		}
		s, err := setup(d, specs[0], nil)
		if err != nil {
			return fmt.Errorf("catalog program: setup: %w", err)
		}
		out, err := s.optimize()
		if err != nil {
			return fmt.Errorf("catalog program: %w", err)
		}
		r, err := evalRun(out.opt.Binary, nil)
		if err != nil {
			return fmt.Errorf("catalog program: optimized eval run: %w", err)
		}
		if r.Exit != s.base.Exit {
			return fmt.Errorf("catalog program: optimized binary halted with checksum %d, baseline %d", r.Exit, s.base.Exit)
		}
		speedup = speedupPct(s.base.Cycles, r.Cycles)
		return nil
	})
	return speedup, err
}

// speedupPct is the modeled cycle reduction of an optimized eval run
// against its baseline's, in percent.
func speedupPct(baseCycles, optCycles uint64) float64 {
	return 100 * (1 - float64(optCycles)/float64(baseCycles))
}

// coldRebuild re-optimizes the current (edited) program with fresh
// caches and no incremental analysis cache, from the same aggregate.
// Its artifacts and binary must equal the last warm round's.
func (s *state) coldRebuild() (*stepOut, error) {
	opts := s.opts
	opts.IRCache, opts.ObjCache = buildsys.NewCache(), buildsys.NewCache()
	return s.pipeline(opts, nil)
}

// sameOutput reports whether two steps emitted byte-identical
// cc_prof/ld_prof artifacts and the same optimized binary.
func sameOutput(a, b *stepOut) (bool, error) {
	ac, al, err := artifacts(a.wres)
	if err != nil {
		return false, err
	}
	bc, bl, err := artifacts(b.wres)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ac, bc) && bytes.Equal(al, bl) && a.sum.buildID == b.sum.buildID, nil
}

func artifacts(res *wpa.Result) (cc, ld []byte, err error) {
	var c, l bytes.Buffer
	if err := layoutfile.WriteDirectives(&c, res.Directives); err != nil {
		return nil, nil, err
	}
	if err := layoutfile.WriteOrder(&l, res.Order); err != nil {
		return nil, nil, err
	}
	return c.Bytes(), l.Bytes(), nil
}
