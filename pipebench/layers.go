package main

import (
	"propeller/internal/sim"
)

// layers derives the per-layer metrics of a traced run: span times from
// the traced steps (a layer the step does not call — the profiling run and
// sample aggregation on wsc-edit, whose warm rounds reuse the release's
// profile — from the set-ups' spans), counts from what the steps
// returned, runtime counters from the untraced steps, and the output
// counters from the optimized binary's eval run.
type layers struct {
	tr               *tracer
	setupRuns        []int
	evalRun          int
	traced, untraced []opRecord
	optEval          *sim.Result // nil when the output check failed
	profileInsts     uint64      // wsc-edit: the set-up's profiling run's
	host             *hostSpeed
}

// stepSeconds is the median time of a layer's spans over the traced
// steps; 0 if the step never calls it.
func (l *layers) stepSeconds(name string) float64 {
	var vs []float64
	for _, op := range l.traced {
		if sp, ok := l.tr.runSpans(op.run)[name]; ok {
			vs = append(vs, sp.seconds())
		}
	}
	if len(vs) == 0 {
		return 0
	}
	return median(vs)
}

// setupSpan is the median over the set-ups of a span's time and
// allocated megabytes.
func (l *layers) setupSpan(name string) (seconds, allocMB float64) {
	var ts, as []float64
	for _, run := range l.setupRuns {
		if sp, ok := l.tr.runSpans(run)[name]; ok {
			ts = append(ts, sp.seconds())
			as = append(as, float64(sp.AllocBytes)/mib)
		}
	}
	if len(ts) == 0 {
		return 0, 0
	}
	return median(ts), median(as)
}

// layerSeconds is stepSeconds, falling back to the set-ups for a layer the
// step does not call.
func (l *layers) layerSeconds(name string) float64 {
	if v := l.stepSeconds(name); v > 0 {
		return v
	}
	v, _ := l.setupSpan(name)
	return v
}

// perStep is the median of f over the traced steps.
func (l *layers) perStep(f func(o *summary, sp map[string]span) float64) float64 {
	vs := make([]float64, len(l.traced))
	for i, op := range l.traced {
		vs[i] = f(&op.sum, l.tr.runSpans(op.run))
	}
	return median(vs)
}

func (l *layers) perUntraced(f func(iv interval) float64) float64 {
	vs := make([]float64, len(l.untraced))
	for i, op := range l.untraced {
		vs[i] = f(op.iv)
	}
	return median(vs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (l *layers) metrics() map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// Simulator and profile. wsc-edit's step does not profile; its
	// profiling run is the set-up's cold pipeline.
	profileS := l.layerSeconds("sim.profile")
	profileInsts := l.perStep(func(o *summary, _ map[string]span) float64 {
		if o.profileInsts == 0 {
			return float64(l.profileInsts)
		}
		return float64(o.profileInsts)
	})
	put("sim.profile_s", "s", profileS)
	put("sim.profile_minst_per_s", "Minst/s", ratio(profileInsts/1e6, profileS))
	put("profile.samples", "count", l.perStep(func(o *summary, _ map[string]span) float64 { return float64(o.wpa.Samples) }))
	put("profile.records", "count", l.perStep(func(o *summary, _ map[string]span) float64 { return float64(o.wpa.Records) }))
	if l.optEval != nil {
		ev := l.tr.runSpans(l.evalRun)
		evalS := ev["sim.eval"].seconds()
		put("sim.load_s", "s", ev["sim.load"].seconds())
		put("sim.eval_s", "s", evalS)
		put("sim.eval_minst_per_s", "Minst/s", ratio(float64(l.optEval.Insts)/1e6, evalS))
		c := l.optEval.Counters
		put("sim.cycles", "count", float64(l.optEval.Cycles))
		put("sim.l1i_miss", "count", float64(c.L1IMiss))
		put("sim.itlb_miss", "count", float64(c.ITLBMiss))
		put("sim.taken_branches", "count", float64(c.TakenBranch))
	}

	// Whole-program analysis. The aggregation wall comes from the
	// analyzer's own Stats; on wsc-edit it is the set-up's aggregation,
	// which the warm rounds reuse.
	aggS := l.perStep(func(o *summary, _ map[string]span) float64 {
		return (o.wpa.AggregateWall + o.wpa.MergeWall).Seconds()
	})
	put("wpa.analyze_s", "s", l.stepSeconds("wpa.analyze"))
	put("wpa.aggregate_s", "s", aggS)
	put("wpa.records_per_s", "1/s", ratio(l.perStep(func(o *summary, _ map[string]span) float64 { return float64(o.wpa.Records) }), aggS))
	put("wpa.layout_s", "s", l.perStep(func(o *summary, _ map[string]span) float64 { return o.wpa.LayoutWall.Seconds() }))
	put("wpa.layout_shards", "count", l.perStep(func(o *summary, _ map[string]span) float64 { return float64(o.wpa.LayoutShards) }))
	put("wpa.dcfg_nodes", "count", l.perStep(func(o *summary, _ map[string]span) float64 { return float64(o.wpa.DCFGNodes) }))
	put("wpa.hot_funcs", "count", l.perStep(func(o *summary, _ map[string]span) float64 { return float64(o.wpa.HotFuncs) }))
	put("wpa.alloc_mb", "MB", l.perStep(func(_ *summary, sp map[string]span) float64 { return float64(sp["wpa.analyze"].AllocBytes) / mib }))
	put("wpa.layout_hit_frac", "frac", l.perStep(func(o *summary, _ map[string]span) float64 {
		st := o.wpa
		return ratio(float64(st.FuncLayoutHits), float64(st.FuncLayoutHits+st.FuncLayoutMisses))
	}))
	put("wpa.relaid_funcs", "count", l.perStep(func(o *summary, _ map[string]span) float64 { return float64(o.wpa.RelaidFuncs) }))

	// Build system, codegen and linker.
	buildMetaS := l.stepSeconds("core.build_meta")
	relinkS := l.stepSeconds("core.relink")
	put("core.build_meta_s", "s", buildMetaS)
	put("core.ir_cache_s", "s", l.stepSeconds("core.ir_cache"))
	put("core.relink_s", "s", relinkS)
	put("buildsys.actions", "count", l.perStep(func(o *summary, _ map[string]span) float64 {
		return float64(o.actions)
	}))
	put("buildsys.ir_cache_mb", "MB", l.perStep(func(o *summary, _ map[string]span) float64 { return float64(o.irCacheB) / mib }))
	put("buildsys.obj_cache_hit_frac", "frac", l.perStep(func(o *summary, _ map[string]span) float64 { return o.objHitFrac }))
	put("core.hot_modules", "count", l.perStep(func(o *summary, _ map[string]span) float64 { return float64(o.nHot) }))
	put("core.hot_reused_frac", "frac", l.perStep(func(o *summary, _ map[string]span) float64 {
		return ratio(float64(o.hotReused), float64(o.nHot))
	}))
	put("linker.input_mb", "MB", l.perStep(func(o *summary, _ map[string]span) float64 { return float64(o.link.InputBytes) / mib }))
	put("linker.output_kb", "KB", l.perStep(func(o *summary, _ map[string]span) float64 { return float64(o.link.OutputBytes) / 1024 }))
	put("linker.jumps_deleted", "count", l.perStep(func(o *summary, _ map[string]span) float64 { return float64(o.link.JumpsDeleted) }))
	put("linker.branches_shrunk", "count", l.perStep(func(o *summary, _ map[string]span) float64 { return float64(o.link.BranchesShrunk) }))

	// Set-up layers.
	genS, _ := l.setupSpan("workload.generate")
	pgoS, pgoMB := l.setupSpan("pgo.prepare")
	baseS, _ := l.setupSpan("core.baseline_build")
	put("workload.generate_s", "s", genS)
	put("pgo.prepare_s", "s", pgoS)
	put("pgo.alloc_mb", "MB", pgoMB)
	put("core.baseline_build_s", "s", baseS)

	// Go runtime over the untraced Propeller step.
	put("runtime.alloc_mb", "MB", l.perUntraced(func(iv interval) float64 { return iv.allocMB }))
	put("runtime.gc_cpu_s", "s", l.perUntraced(func(iv interval) float64 { return iv.gcCPUS }))
	put("runtime.gc_cycles", "count", l.perUntraced(func(iv interval) float64 { return iv.gcCycles }))

	// The cost model beside the measurement: modeled Phase 2-4 seconds
	// and Phase-3 memory, and measured over modeled seconds per phase.
	p2 := l.perStep(func(o *summary, _ map[string]span) float64 { return o.model.phase2S })
	p3 := l.perStep(func(o *summary, _ map[string]span) float64 { return o.model.phase3S })
	p4 := l.perStep(func(o *summary, _ map[string]span) float64 { return o.model.phase4S })
	put("model.phase2_s", "model_s", p2)
	put("model.phase3_s", "model_s", p3)
	put("model.phase4_s", "model_s", p4)
	put("model.phase3_mb", "MB", l.perStep(func(o *summary, _ map[string]span) float64 { return float64(o.model.phase3B) / mib }))
	put("model.phase2_ratio", "s/model_s", ratio(buildMetaS, p2))
	put("model.phase3_ratio", "s/model_s", ratio(l.stepSeconds("sim.profile")+l.stepSeconds("wpa.analyze"), p3))
	put("model.phase4_ratio", "s/model_s", ratio(relinkS, p4))

	// Tracing overhead: traced minus untraced step wall time.
	traced := make([]float64, len(l.traced))
	for i, op := range l.traced {
		traced[i] = op.iv.wallS
	}
	put("trace.overhead_s", "s", median(traced)-l.perUntraced(func(iv interval) float64 { return iv.wallS }))

	// The host's speed during the run: the reference kernel's median
	// times, which the end-to-end times are normalized by.
	put("host.ref_wall_s", "s", median(l.host.wallS))
	put("host.ref_cpu_s", "s", median(l.host.cpuS))
	return m
}

// stepSpans returns the median time of each layer the traced steps
// called, and the largest of them.
func (l *layers) stepSpans() (map[string]float64, string) {
	out := map[string]float64{}
	dominant := ""
	for _, op := range l.traced {
		for name := range l.tr.runSpans(op.run) {
			if name == "step" {
				continue
			}
			out[name] = l.stepSeconds(name)
			if dominant == "" || out[name] > out[dominant] || out[name] == out[dominant] && name < dominant {
				dominant = name
			}
		}
	}
	return out, dominant
}
