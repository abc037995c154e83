package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls into
// each layer; they stay in memory and are written when the run ends. A
// nil *recorder records nothing, which is how the untraced replay pass
// that prices the tracing itself runs.

type span struct {
	name     string
	start    time.Duration // since the recorder's epoch
	end      time.Duration
	parent   int32 // index of the span that caused this one; -1 for a root
	instance uint64
	attrs    map[string]float64
}

type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index, to be passed to end and used as
// the parent of the spans it causes.
func (r *recorder) begin(name string, parent int32, instance uint64) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: parent, instance: instance, start: time.Since(r.epoch)})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r != nil {
		r.spans[i].end = time.Since(r.epoch)
	}
}

// add records a root span measured elsewhere.
func (r *recorder) add(name string, start, end time.Time, instance uint64, attrs map[string]float64) {
	r.spans = append(r.spans, span{
		name: name, parent: -1, instance: instance, attrs: attrs,
		start: start.Sub(r.epoch), end: end.Sub(r.epoch),
	})
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its child spans cover. Children of one parent
// never overlap here (the replay is single-threaded), so the covered part
// is the sum of their durations.
func (r *recorder) selfTimes() (self map[string]time.Duration, count map[string]int) {
	self, count = map[string]time.Duration{}, map[string]int{}
	covered := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.spans {
		self[s.name] += s.end - s.start - covered[i]
		count[s.name]++
	}
	return self, count
}

// write stores the spans as a JSON array, one object per span, times in
// nanoseconds since the trace began.
func (r *recorder) write(path string) error {
	type jsonSpan struct {
		ID       int                `json:"id"`
		Name     string             `json:"name"`
		StartNs  int64              `json:"start_ns"`
		EndNs    int64              `json:"end_ns"`
		Parent   int                `json:"parent"`
		Instance uint64             `json:"instance"`
		Attrs    map[string]float64 `json:"attrs,omitempty"`
	}
	out := make([]jsonSpan, len(r.spans))
	for i, s := range r.spans {
		out[i] = jsonSpan{i, s.name, int64(s.start), int64(s.end), int(s.parent), s.instance, s.attrs}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		_ = f.Close() // the encode error is the one to report
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	return nil
}
