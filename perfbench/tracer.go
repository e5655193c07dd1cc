package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Measured spans carry start and
// end (ns since the tracer started); spans whose duration the program
// reported in a response's stats carry only the duration.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Req      int64  `json:"req,omitempty"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Phase    string `json:"phase"`
	Start    int64  `json:"start_ns,omitempty"`
	End      int64  `json:"end_ns,omitempty"`
	Dur      int64  `json:"dur_ns"`
	Reported bool   `json:"reported,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced pass runs the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	phase string
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), phase: "setup"} }

// layerOf is the layer a span name belongs to: the part before the
// first dot.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

func (t *tracer) setPhase(ph string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase = ph
	t.mu.Unlock()
}

func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int64(len(t.spans)) + 1
	s.Layer = layerOf(s.Name)
	s.Phase = t.phase
	t.spans = append(t.spans, s)
	return s.ID
}

// span records a measured call and returns its id (0 when untraced).
func (t *tracer) span(name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	return t.add(span{Name: name, Parent: parent, Req: req,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Dur: int64(end.Sub(start))})
}

// reported records a program-reported stage as a child of parent.
func (t *tracer) reported(name string, parent, req int64, d time.Duration) {
	if t == nil {
		return
	}
	t.add(span{Name: name, Parent: parent, Req: req, Dur: int64(d), Reported: true})
}

// gcPauses records the GC pauses between two MemStats reads as spans
// of the gc layer (the runtime keeps the last 256).
func (t *tracer) gcPauses(a, b *runtime.MemStats) {
	if t == nil {
		return
	}
	n := b.NumGC - a.NumGC
	if n > 256 {
		n = 256
	}
	for i := uint32(0); i < n; i++ {
		k := (b.NumGC - i + 255) % 256
		end := time.Unix(0, int64(b.PauseEnd[k]))
		d := time.Duration(b.PauseNs[k])
		t.span("gc.pause", 0, 0, end.Add(-d), end)
	}
}

// selfTimes sums each layer's self time — a span's duration minus its
// children's — over every span recorded outside set-up and the output
// checks.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.Dur
		}
	}
	for _, s := range t.spans {
		if s.Phase == "setup" || s.Phase == "verify" {
			continue
		}
		self := s.Dur - children[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Layer] += time.Duration(self)
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
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

// printSelfTimes prints each layer's self time and span count.
func printSelfTimes(p *pass) {
	self := p.tr.selfTimes()
	counts := make(map[string]int)
	p.tr.mu.Lock()
	for _, s := range p.tr.spans {
		counts[s.Layer]++
	}
	p.tr.mu.Unlock()
	layers := make([]string, 0, len(counts))
	for l := range counts {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Println("layer self time (timed phase, restarts and replay):")
	for _, l := range layers {
		fmt.Printf("  %-8s %12.3f ms  %8d spans\n", l, ms(self[l]), counts[l])
	}
}
