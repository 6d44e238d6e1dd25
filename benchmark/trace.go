package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark's own code. Times are nanoseconds since the tracer started.
// Parent is the id of the span that caused it (0 for a root); spans of one
// traced sweep share Sweep.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Sweep  int    `json:"sweep"`
	Class  string `json:"class,omitempty"`
	// Self is the span's duration minus the part of it its child spans
	// cover; filled in when the trace is written.
	Self int64 `json:"self"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []span
	children []childObs
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, sweep int) int {
	return t.beginClass(name, "", parent, sweep)
}

func (t *tracer) beginClass(name, class string, parent, sweep int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Class: class, Start: now, Parent: parent, Sweep: sweep})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// child records what a traced shard child's stream showed the parent.
func (t *tracer) child(o childObs) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.children = append(t.children, o)
}

// childrenOf returns the shard children observed during one traced sweep.
func (t *tracer) childrenOf(sweep int) []childObs {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []childObs
	for _, o := range t.children {
		if o.sweep == sweep {
			out = append(out, o)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the union of
// its children's intervals, clipped to its own. Children that overlap each
// other (concurrent shard children) are counted once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range ks {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		out[i] = s.End - s.Start - covered
	}
	return out
}

// write stores every span as one JSON line, with its self time.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		s.Self = self[i]
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
