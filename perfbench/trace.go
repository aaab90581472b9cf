package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"alex/internal/core"
	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/server"
	"alex/internal/store"
	"alex/internal/wal"
)

// tracer records spans around the benchmark's calls into each layer and
// around the program interfaces it wraps, plus counters where a span
// per call would cost more than the call (store scans, link feedback).
// Spans stay in memory and are written out once, at the end. A nil
// *tracer is valid and records nothing, so untraced passes share code.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span

	// open is the feedback request span in flight on the loop client;
	// wal spans, which run on the server's handler goroutine, take it
	// as their parent and request ID.
	openID, openReq atomic.Uint64

	// Store wrapper counters (federation sources only).
	scans, countMatches, triples, scanNs atomic.Int64
	// Engine wrapper counters.
	feedbackLinks, feedbackNs   atomic.Int64
	episodes, explored, removed atomic.Int64
	// wal.FS wrapper counters.
	syncs, writeBytes atomic.Int64
}

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end records it.
type spanRef struct {
	t               *tracer
	id, parent, req uint64
	name            string
	start           time.Time
}

func (t *tracer) begin(name string, parent, req uint64) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, id: t.nextID.Add(1), parent: parent, req: req, name: name, start: time.Now()}
}

// end records the span and returns its duration.
func (s spanRef) end() time.Duration {
	if s.t == nil {
		return 0
	}
	now := time.Now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{
		ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
		Start: int64(s.start.Sub(s.t.t0)), End: int64(now.Sub(s.t.t0)),
	})
	s.t.mu.Unlock()
	return now.Sub(s.start)
}

// spanStats is one span name's aggregate: self time is the duration
// not covered by child spans.
type spanStats struct {
	Count  int     `json:"count"`
	Total  float64 `json:"total_ms"`
	Self   float64 `json:"self_ms"`
	MeanMs float64 `json:"mean_ms"`
}

func (t *tracer) stats() map[string]*spanStats {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.Total += float64(dur) / 1e6
		st.Self += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	for _, st := range out {
		st.MeanMs = safeDiv(st.Total, float64(st.Count))
	}
	return out
}

// covered is how much of parent's interval its children cover, with
// overlapping children counted once.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	doc := struct {
		Spans  []span                `json:"spans"`
		ByName map[string]*spanStats `json:"by_name"`
	}{Spans: t.spans}
	t.mu.Unlock()
	doc.ByName = t.stats()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// engine is what server.New needs from *core.System, including the
// Checkpointer surface: a wrapper without it would silently disable
// checkpoints (server.recover type-asserts the engine).
type engine interface {
	server.Engine
	server.Checkpointer
}

// tracedEngine wraps the ALEX engine behind server.New.
type tracedEngine struct {
	inner engine
	t     *tracer
}

func (e *tracedEngine) BeginEpisode() { e.inner.BeginEpisode() }

func (e *tracedEngine) Feedback(l links.Link, positive bool) {
	start := time.Now()
	e.inner.Feedback(l, positive)
	e.t.feedbackNs.Add(int64(time.Since(start)))
	e.t.feedbackLinks.Add(1)
}

func (e *tracedEngine) FinishEpisode() core.EpisodeStats {
	sp := e.t.begin("core.finish_episode", 0, 0)
	st := e.inner.FinishEpisode()
	sp.end()
	e.t.episodes.Add(1)
	e.t.explored.Add(int64(st.Explored))
	e.t.removed.Add(int64(st.Removed))
	return st
}

func (e *tracedEngine) Candidates() links.Set {
	sp := e.t.begin("core.candidates", 0, 0)
	defer sp.end()
	return e.inner.Candidates()
}

func (e *tracedEngine) CandidateCount() int { return e.inner.CandidateCount() }
func (e *tracedEngine) Episode() int        { return e.inner.Episode() }

func (e *tracedEngine) Save(w io.Writer) error {
	sp := e.t.begin("core.save", 0, 0)
	defer sp.end()
	return e.inner.Save(w)
}

func (e *tracedEngine) Restore(r io.Reader) error {
	sp := e.t.begin("core.restore", 0, 0)
	defer sp.end()
	return e.inner.Restore(r)
}

// tracedStore wraps a federation source: it counts scans, CountMatch
// calls and triples enumerated, and sums scan time, without a span per
// scan.
type tracedStore struct {
	store.TripleStore
	t *tracer
}

func (s *tracedStore) ForEachMatchIDs(sub, p, o rdf.ID, haveS, haveP, haveO bool, fn func(s, p, o rdf.ID) bool) {
	start := time.Now()
	var n int64
	s.TripleStore.ForEachMatchIDs(sub, p, o, haveS, haveP, haveO, func(a, b, c rdf.ID) bool {
		n++
		return fn(a, b, c)
	})
	s.t.scanNs.Add(int64(time.Since(start)))
	s.t.scans.Add(1)
	s.t.triples.Add(n)
}

func (s *tracedStore) CountMatch(sub, p, o rdf.ID, haveS, haveP, haveO bool) int {
	s.t.countMatches.Add(1)
	return s.TripleStore.CountMatch(sub, p, o, haveS, haveP, haveO)
}

// tracedFS wraps the journal's file system (server.Config.FS only —
// never store.Options.FS, where the store's type assertions for
// hardlinks and mmap would silently fall back to copying).
type tracedFS struct {
	inner wal.FS
	t     *tracer
}

func (f *tracedFS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }
func (f *tracedFS) OpenAppend(name string) (wal.File, error) {
	fl, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{inner: fl, t: f.t}, nil
}
func (f *tracedFS) Create(name string) (wal.File, error) {
	fl, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{inner: fl, t: f.t}, nil
}
func (f *tracedFS) Open(name string) (io.ReadCloser, error) { return f.inner.Open(name) }
func (f *tracedFS) Rename(oldname, newname string) error    { return f.inner.Rename(oldname, newname) }
func (f *tracedFS) Remove(name string) error                { return f.inner.Remove(name) }
func (f *tracedFS) Truncate(name string, size int64) error  { return f.inner.Truncate(name, size) }
func (f *tracedFS) ReadDir(dir string) ([]string, error)    { return f.inner.ReadDir(dir) }
func (f *tracedFS) SyncDir(dir string) error                { return f.inner.SyncDir(dir) }

type tracedFile struct {
	inner wal.File
	t     *tracer
}

func (f *tracedFile) Write(p []byte) (int, error) {
	n, err := f.inner.Write(p)
	f.t.writeBytes.Add(int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	sp := f.t.begin("wal.sync", f.t.openID.Load(), f.t.openReq.Load())
	err := f.inner.Sync()
	sp.end()
	f.t.syncs.Add(1)
	return err
}

func (f *tracedFile) Close() error { return f.inner.Close() }
