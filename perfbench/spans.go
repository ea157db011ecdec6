package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// span is one timed call from the benchmark into a layer's public function.
// Spans nest through Parent (0 marks a root); the spans of one operation
// share its root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the benchmark writes them out at the
// end. A nil *tracer records nothing, which is how untraced runs stay
// untraced.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Seconds()
}

// span runs fn inside a span named name under parent.
func (t *tracer) span(parent int, name string, fn func()) {
	id := t.begin(parent, name)
	fn()
	t.end(id)
}

// median returns the median duration in seconds of the spans named name,
// and 0 when there are none.
func (t *tracer) median(name string) float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, s.seconds())
		}
	}
	return median(d)
}

// write stores the spans as JSON in path, creating its directory.
func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// median returns the median of xs (the mean of the middle two for an even
// count), and 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
