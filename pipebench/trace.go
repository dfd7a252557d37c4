package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one call into a pipeline layer, recorded by the benchmark around
// the public entry point it calls. Spans of one setup or one Propeller
// step share a run id; Parent is the id of the enclosing span, -1 for a
// run's root.
type span struct {
	Run        int    `json:"run"`
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so the untraced path runs the same code.
type tracer struct {
	origin time.Time
	spans  []span
	run    int
	open   int // id of the innermost open span, -1 when none
	alloc  []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		run:    -1,
		open:   -1,
		alloc:  []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64()
}

// root starts a new run (a setup or a Propeller step) and runs fn inside
// its root span.
func (t *tracer) root(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	t.run++
	return t.do(name, fn)
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: t.open, Name: name})
	parent := t.open
	t.open = id
	a0 := t.allocated()
	start := time.Since(t.origin)
	err := fn()
	end := time.Since(t.origin)
	t.spans[id].StartNS, t.spans[id].EndNS = start.Nanoseconds(), end.Nanoseconds()
	t.spans[id].AllocBytes = t.allocated() - a0
	t.open = parent
	return err
}

// runSpans returns the spans of run, keyed by name; a layer called more
// than once in a run has its durations summed.
func (t *tracer) runSpans(run int) map[string]span {
	out := map[string]span{}
	for _, s := range t.spans {
		if s.Run != run {
			continue
		}
		if prev, ok := out[s.Name]; ok {
			prev.EndNS += s.EndNS - s.StartNS
			prev.AllocBytes += s.AllocBytes
			s = prev
		}
		out[s.Name] = s
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
