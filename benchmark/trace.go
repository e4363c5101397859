package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval. Parent is the ID of the span that caused
// it (0 for a root); spans of one operation share Op. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// clientSpan is a request as the load generator saw it.
type clientSpan struct {
	op         int
	class      class
	start, end time.Time
}

// tracer keeps spans in memory until the run ends. All spans come from
// the harness's own code: around its calls into a layer's public
// functions (probes) and around its requests (client spans). It is not
// safe for concurrent use; the probes are single-threaded and client
// spans are added after the phase.
type tracer struct {
	epoch time.Time
	spans []span
	// cursor is, per parent, where the next replayed child is laid.
	cursor map[int]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), cursor: make(map[int]int64)}
}

// begin opens a span now and returns its ID for end and as a parent.
func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op,
		Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.Dur = int64(time.Since(t.epoch)) - s.Start
	return time.Duration(s.Dur)
}

// child records a replayed child: a callee the harness cannot observe
// inside the parent (tracing inside the program is a later change), so
// it ran the same call again right after the parent and lays the
// measured duration inside the parent's interval, after the children
// already there and clipped to the parent's end.
func (t *tracer) child(parent int, name string, dur time.Duration) {
	p := t.spans[parent-1]
	start := t.cursor[parent]
	if start < p.Start {
		start = p.Start
	}
	end := start + int64(dur)
	if end > p.Start+p.Dur {
		end = p.Start + p.Dur
	}
	if end < start {
		end = start
	}
	t.cursor[parent] = end
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: p.Op, Start: start, Dur: end - start})
}

func (t *tracer) addClientSpans(client int, cs []clientSpan) {
	for _, c := range cs {
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: "client." + classNames[c.class],
			Op: client<<32 | c.op, Start: int64(c.start.Sub(t.epoch)), Dur: int64(c.end.Sub(c.start))})
	}
}

// selfTimes returns, per span name, every span's self time in
// nanoseconds: its duration minus the part of its interval that its
// child spans cover (overlapping children are counted once).
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upto := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.Start+k.Dur
			if lo < upto {
				lo = upto
			}
			if hi > s.Start+s.Dur {
				hi = s.Start + s.Dur
			}
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.Dur-covered))
	}
	return out
}

// childrenWithinParents reports the first span that leaves its parent's
// interval, or nil.
func childrenWithinParents(spans []span) *span {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for i, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p := byID[s.Parent]
		if s.Start < p.Start || s.Start+s.Dur > p.Start+p.Dur {
			return &spans[i]
		}
	}
	return nil
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
