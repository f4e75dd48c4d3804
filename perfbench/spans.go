package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a call into a layer's public API made by
// the benchmark. Parent is the index of the enclosing span (-1 for a
// campaign root); every span of one campaign shares its Campaign id.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Campaign int    `json:"campaign"`
	// Note carries a span-specific detail, e.g. the lease a grant named.
	Note string `json:"note,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, at the end of
// the traced run. Safe for concurrent use: post-failure spans arrive from
// worker goroutines and serve spans from HTTP handlers.
type tracer struct {
	epoch     time.Time
	mu        sync.Mutex
	spans     []span
	campaigns int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// nextCampaign returns a fresh campaign id.
func (t *tracer) nextCampaign() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.campaigns++
	return t.campaigns
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, campaign int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: -1, Parent: parent, Campaign: campaign})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a finished span measured by the caller.
func (t *tracer) add(name string, parent, campaign int, start, end time.Time, note string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
		Parent: parent, Campaign: campaign, Note: note,
	})
}

// get returns a copy of span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// children returns the closed spans whose parent is id.
func (t *tracer) children(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// named returns the closed spans of one campaign with the given name.
func (t *tracer) named(campaign int, name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Campaign == campaign && s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// self returns span id's duration minus the part of it its children
// cover; overlapping children (parallel post-runs) are counted once.
func (t *tracer) self(id int) time.Duration {
	s := t.get(id)
	return s.dur() - covered(s, t.children(id))
}

// covered measures the union of kids' intervals clipped to s.
func covered(s span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// sumDur adds up span durations in seconds.
func sumDur(spans []span) float64 {
	var d time.Duration
	for _, s := range spans {
		d += s.dur()
	}
	return d.Seconds()
}

// writeFile writes every span as one JSON line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
