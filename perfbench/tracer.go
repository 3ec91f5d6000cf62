package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

var epoch = time.Now()

// now is the host clock in seconds since the process started.
func now() float64 { return time.Since(epoch).Seconds() }

// span is one timed call into a layer, recorded by the traced run. Spans
// nest on a single goroutine, so a span's children never overlap.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Op     int     `json:"op"`     // op index within its pass
	Pass   int     `json:"pass"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps the traced run's spans in memory; write exports them when
// the run ends. A nil *tracer records nothing, which is how the untraced
// run calls the same code.
type tracer struct {
	pass  int
	spans []span
	open  []int
}

func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Pass: t.pass, Name: name, Start: now()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = now()
	t.open = t.open[:len(t.open)-1]
}

// call runs fn inside a span named after the layer call it makes.
func (t *tracer) call(name string, op int, fn func() error) error {
	s := t.begin(name, op)
	defer t.end(s)
	return fn()
}

// selfTimes sums, per span name, the self time of the spans recorded since
// index from: a span's duration minus the time its children cover.
func (t *tracer) selfTimes(from int) map[string]float64 {
	self := map[string]float64{}
	for _, s := range t.spans[from:] {
		d := s.End - s.Start
		self[s.Name] += d
		if s.Parent >= from {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// write exports the spans as JSON lines into dir/name.jsonl.
func (t *tracer) write(dir, name string) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
