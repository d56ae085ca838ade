package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layer span names. Each is recorded by the benchmark around its calls
// into one layer; nothing inside the program is instrumented.
const (
	spanJob      = "bench.job"
	spanKey      = "spec.key"
	spanNew      = "slacksim.new"
	spanRun      = "engine.run"
	spanVerify   = "workload.verify"
	spanRelease  = "slacksim.release"
	spanSubmit   = "client.submit"
	spanEvents   = "client.events"
	spanDispatch = "fleet.dispatch"
	spanRunner   = "server.runner"
	spanCacheGet = "durable.cache_get"
	spanCachePut = "durable.cache_put"
	spanJournal  = "durable.journal_submit"
)

// layers lists every span name, in the order self times are printed.
var layers = []string{spanJob, spanKey, spanNew, spanRun, spanVerify, spanRelease,
	spanSubmit, spanEvents, spanDispatch, spanRunner, spanCacheGet, spanCachePut, spanJournal}

// span is one recorded layer call.
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Job    int64     `json:"job"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory while on. When off, begin returns an
// inert handle and nothing is recorded.
type tracer struct {
	on  atomic.Bool
	ids atomic.Int64

	mu    sync.Mutex
	spans []span // guarded by mu
}

// open is a span that has begun; end records it.
type open struct {
	t    *tracer
	id   int64
	par  int64
	job  int64
	name string
	at   time.Time
}

func (t *tracer) begin(name string, job, parent int64) open {
	if !t.on.Load() {
		return open{}
	}
	return open{t: t, id: t.ids.Add(1), par: parent, job: job, name: name, at: time.Now()}
}

func (o open) end() {
	if o.t == nil {
		return
	}
	s := span{ID: o.id, Parent: o.par, Job: o.job, Name: o.name, Start: o.at, End: time.Now()}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, s)
	o.t.mu.Unlock()
}

// take returns the recorded spans and clears the tracer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// durations returns the durations in nanoseconds of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines under dir.
func writeSpans(dir, file string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}
