package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// program, or a stage of such a call that the program's own log lines
// delimit. The layer is the first dot-separated word of the name.
type span struct {
	name       string
	parent     int // index of the enclosing span; -1 for a root
	start, end time.Duration
}

// tracer keeps spans in memory, nested by call order. The benchmark is
// single-threaded outside the program's own worker pools, so one stack
// of open spans gives every span its parent. A disabled tracer records
// nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

func (t *tracer) top() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span inside the innermost open one and returns its id
// for end.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: t.top(), start: t.now()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	if t.top() != id {
		panic(fmt.Sprintf("perfbench: span %q closed out of order", t.spans[id].name))
	}
	t.spans[id].end = t.now()
	t.open = t.open[:len(t.open)-1]
}

// record adds a finished span inside the innermost open one: a stage
// whose bounds were observed, not bracketed, such as the interval
// between two progress lines.
func (t *tracer) record(name string, start, end time.Duration) {
	if t.on {
		t.spans = append(t.spans, span{name: name, parent: t.top(), start: start, end: end})
	}
}

// durations returns the lengths in seconds of the spans called name,
// from index from on.
func (t *tracer) durations(from int, name string) []float64 {
	var out []float64
	for _, s := range t.spans[from:] {
		if s.name == name {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each layer's self time in seconds: the length of
// its spans minus the part their child spans cover. Children of one span
// never overlap, since they run one after another.
func (t *tracer) selfTimes() map[string]float64 {
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		self[layerOf(s.name)] += (s.end - s.start - children[i]).Seconds()
	}
	return self
}

// chromeEvent is one complete event of the Chrome trace format, which
// chrome://tracing and Perfetto open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write saves the spans as a Chrome trace; each event's args carry its
// span id and its parent's.
func (t *tracer) write(path string) error {
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "parent": s.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
