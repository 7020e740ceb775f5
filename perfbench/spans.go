package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// tracer records spans in memory around the benchmark's calls into each
// layer; they are written out once the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a job
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (t *tracer) begin(name string, parent int) int {
	if t.t0.IsZero() {
		t.t0 = time.Now()
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover, in milliseconds.
func (t *tracer) selfTimes() map[string]float64 {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		covered := int64(0)
		last := s.Start
		for _, c := range children[i] { // children are recorded in start order
			cs, ce := max(t.spans[c].Start, last), min(t.spans[c].End, s.End)
			if ce > cs {
				covered += ce - cs
				last = ce
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
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
	return f.Close()
}
