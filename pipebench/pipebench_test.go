package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"propeller/internal/workload"
)

// TestMain lets the test binary stand in for the benchmark binary as the
// reference kernel's child process.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == refFlag {
		referenceKernel()
		return
	}
	os.Exit(m.Run())
}

// tinyDefs are the three workload shapes at workload.Tiny() scale.
var tinyDefs = []def{
	{name: "tiny-interproc", catalog: workload.Tiny, requestsX: 1, interProc: true},
	{name: "tiny-long", catalog: workload.Tiny, requestsX: 2},
	{name: "tiny-edit", catalog: workload.Tiny, requestsX: 1, edit: true},
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEveryMetricEmitted runs each workload shape untraced and traced and
// checks that every metric BENCHMARK.json names is emitted with its unit,
// that every op passes its output checks, and that nothing else is
// emitted.
func TestEveryMetricEmitted(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, d := range tinyDefs {
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			cfg := config{trace: trace, setups: 2, minOps: 4, spansPath: filepath.Join(t.TempDir(), "spans.jsonl")}
			// A seed other than the catalog's also exercises the request
			// rescaling.
			res, inf, err := run(d, 11, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", d.name, trace, err)
			}
			// A cold workload measures three programs, each with at least
			// two of the four steps; wsc-edit adds core.Optimize on the
			// catalog program for speedup_pct to an untraced run.
			wantOps, wantSetups := 3*2, 3
			if d.edit {
				wantOps, wantSetups = 4, 2
				if !trace {
					wantOps++
				}
			}
			if len(inf.Specs) != len(d.seeds(11)) || inf.Setups != wantSetups {
				t.Errorf("%s trace=%v: %d programs, %d set-ups; want %d, %d",
					d.name, trace, len(inf.Specs), inf.Setups, len(d.seeds(11)), wantSetups)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != wantOps {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d (want %d) errors=%v",
					d.name, trace, res.Correct, res.Failed, res.Attempted, wantOps, inf.Errors)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", d.name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", d.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", d.name, trace, len(res.Metrics), len(want))
			}
			if trace {
				if _, err := os.Stat(cfg.spansPath); err != nil {
					t.Errorf("%s: spans not written: %v", d.name, err)
				}
				if _, ok := inf.StepSpans["sim.profile"]; ok == d.edit {
					t.Errorf("%s: step has sim.profile span: %v, want %v", d.name, ok, !d.edit)
				}
			}
		}
	}
}

// TestFailingOpCounted injects a failing and a panicking op and checks
// both are counted as failed while the run goes on.
func TestFailingOpCounted(t *testing.T) {
	d := tinyDefs[1]
	specs, err := specsFor(d, d.catalog().Seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := setup(d, specs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	step := func(*tracer) (*stepOut, error) {
		i++
		switch i {
		case 2:
			return nil, errors.New("injected failure")
		case 3:
			panic("injected panic")
		}
		return s.optimize()
	}
	ops := runOps(config{window: time.Nanosecond, minOps: 4}, nil, nil, step)
	checkSameBinary(ops)
	inf := &info{}
	res, _ := tally(ops, inf)
	if res.Attempted != 4 || res.Failed != 2 || res.Correct || inf.FailedFrac != 0.5 {
		t.Fatalf("attempted=%d failed=%d correct=%v failed_frac=%v, want 4, 2, false, 0.5",
			res.Attempted, res.Failed, res.Correct, inf.FailedFrac)
	}
	if len(inf.Errors) != 2 || !strings.Contains(inf.Errors[1], "injected panic") {
		t.Errorf("errors %q", inf.Errors)
	}
}

// TestHostSpeedScales runs the reference kernel in a child process and
// checks that a time equal to the kernel's own reads as its nominal time.
func TestHostSpeedScales(t *testing.T) {
	h := &hostSpeed{}
	h.sample()
	h.sample()
	if h.err != nil || len(h.wallS) != 2 || len(h.cpuS) != 2 {
		t.Fatalf("err %v, %d wall and %d CPU samples, want 2 each", h.err, len(h.wallS), len(h.cpuS))
	}
	if w, c := median(h.wallS), median(h.cpuS); w <= 0 || c <= 0 ||
		math.Abs(h.wall(w)-refNominalWallS) > 1e-9 || math.Abs(h.cpu(c)-refNominalCPUS) > 1e-9 {
		t.Errorf("kernel wall %v s, CPU %v s scale to %v and %v, want %v and %v",
			w, c, h.wall(w), h.cpu(c), refNominalWallS, refNominalCPUS)
	}
}
