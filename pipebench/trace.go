package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent 0 marks a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"` // reports the call carried
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run writes them out. A nil
// *tracer records nothing, so untraced rounds pay only a nil check.
type tracer struct {
	epoch time.Time
	round int

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer(round int) *tracer { return &tracer{epoch: time.Now(), round: round} }

// id reserves a span id before the span ends, so children can name it.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record files a finished span under a reserved id (0 reserves one now).
func (t *tracer) record(id, parent int64, name string, start, end time.Time, count int) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Round: t.round, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Count: count,
	})
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of the spans' intervals,
// clipped to [lo, hi).
func covered(spans []span, lo, hi int64) time.Duration {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		switch {
		case i == 0:
			curA, curB = v[0], v[1]
		case v[0] > curB:
			total += curB - curA
			curA, curB = v[0], v[1]
		case v[1] > curB:
			curB = v[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

// unattributed returns the share of the root span that no leaf span
// covers: wall time the trace cannot assign to any layer call.
func unattributed(spans []span, root span) float64 {
	parents := make(map[int64]bool)
	for _, s := range spans {
		parents[s.Parent] = true
	}
	var leaves []span
	for _, s := range spans {
		if !parents[s.ID] {
			leaves = append(leaves, s)
		}
	}
	return 1 - float64(covered(leaves, root.Start, root.End))/float64(root.dur())
}

// writeSpans writes every traced round's spans as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
