package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/synth"
)

// lookupRate is the lookup workload's offered load, in /query per
// second: well under what two connections sustain on two cores, so the
// latency figures describe an unsaturated server.
const lookupRate = 2000

// windows is how many equal sub-windows a read-only measured phase is
// split into; its end-to-end figures are medians over them.
const windows = 5

// lookupPreds are the cross-sameAs predicates of the lookup template.
var lookupPreds = []rdf.Term{synth.P2Name, synth.P2Born, synth.P2Group}

// lookupText is alexd's and alexload's default template: one dataset-2
// property of one dataset-1 entity, answerable only across a link.
func lookupText(e1 string, pred rdf.Term) string {
	return fmt.Sprintf("SELECT ?n WHERE { <%s> <%s> ?n . }", e1, pred.Value)
}

// runLookup: skewed-hub, mem store, open loop at lookupRate, single-
// pattern lookups over Zipf-skewed entities (~3x more distinct texts
// than the plan cache holds).
func runLookup(p params, tr *tracer) (*outcome, error) {
	w, err := makeWorld("skewed-hub", p)
	if err != nil {
		return nil, err
	}
	ents := w.ds.Entities1
	texts := make([]string, 0, len(ents)*len(lookupPreds))
	for _, e := range ents {
		for _, pr := range lookupPreds {
			texts = append(texts, lookupText(w.iri(e), pr))
		}
	}
	rng := rand.New(rand.NewSource(p.seed))
	perm := rng.Perm(len(ents))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(ents)-1))
	draw := func(n int) []int {
		seq := make([]int, n)
		for k := range seq {
			seq[k] = perm[zipf.Uint64()]*len(lookupPreds) + rng.Intn(len(lookupPreds))
		}
		return seq
	}
	warm := draw(int(lookupRate*p.warmup.Seconds()) + 2)
	seq := draw(int(lookupRate*p.dur.Seconds()) + 2)
	return readOnly(p, tr, w, texts, true, func(conns []*conn, bodies [][]byte, measured bool, check answerCheck) *samples {
		if !measured {
			return openLoop(conns, bodies, lookupRate, p.warmup, func(k int) int { return warm[k] }, check)
		}
		return openLoop(conns, bodies, lookupRate, p.dur, func(k int) int { return seq[k] }, check)
	})
}

// joinTexts are the join workload's multi-pattern BGPs: the skewed hub
// query and the five-pattern cross-source join written in pessimal
// order, each over every category g0..g9.
func joinTexts() []string {
	var out []string
	for g := 0; g < 10; g++ {
		out = append(out, fmt.Sprintf(`SELECT ?e ?x WHERE {
	?e <%s> "g%d" .
	?e <%s> ?x .
	?e <%s> "active" .
}`, synth.P1Cat.Value, g, synth.P2Rel.Value, synth.P1Type.Value))
		out = append(out, fmt.Sprintf(`SELECT ?e ?n ?g ?b ?k WHERE {
	?e <%s> ?n .
	?e <%s> ?g .
	?e <%s> ?b .
	?e <%s> ?k .
	?e <%s> "g%d" .
}`, synth.P1Label.Value, synth.P2Group.Value, synth.P2Born.Value, synth.P2Kind.Value, synth.P1Cat.Value, g))
	}
	return out
}

// runJoin: skewed-hub, mem store, closed loop with two clients over a
// seeded mix of the join texts; every plan stays cached.
//
// Each client sends rounds: every hub query once and every five-pattern
// join twice, in an order the seed shuffles anew each round. The hub
// queries take ~0.3-3ms and the joins ~7-10ms, so under an equal or a
// random mix the median latency sits in the gap between the two and
// jumps with each window's share of joins; at a fixed 1:2 it lies
// inside the joins' cluster.
func runJoin(p params, tr *tracer) (*outcome, error) {
	w, err := makeWorld("skewed-hub", p)
	if err != nil {
		return nil, err
	}
	texts := joinTexts()
	var round []int
	for i := range texts {
		round = append(round, i)
		if i%2 == 1 { // joinTexts alternates hub query, five-pattern join
			round = append(round, i)
		}
	}
	type client struct {
		rng   *rand.Rand
		order []int
	}
	clients := make([]*client, 2)
	for i := range clients {
		clients[i] = &client{rng: rand.New(rand.NewSource(p.seed*31 + int64(i)))}
	}
	next := func(w int) int {
		c := clients[w]
		if len(c.order) == 0 {
			c.order = append(c.order, round...)
			c.rng.Shuffle(len(c.order), func(a, b int) { c.order[a], c.order[b] = c.order[b], c.order[a] })
		}
		i := c.order[0]
		c.order = c.order[1:]
		return i
	}
	return readOnly(p, tr, w, texts, false, func(conns []*conn, bodies [][]byte, measured bool, check answerCheck) *samples {
		if !measured {
			return closedLoop(conns, bodies, p.warmup, next, check)
		}
		return closedLoop(conns, bodies, p.dur, next, check)
	})
}

// phaseFunc runs the warm-up (measured=false) or the measured phase
// over two connections.
type phaseFunc func(conns []*conn, bodies [][]byte, measured bool, check answerCheck) *samples

// readOnly serves w from the mem store as cmd/alexd does, checks every
// answer against in-process references and measures one phase. open
// says whether the phase is an open loop (latency from due time).
func readOnly(p params, tr *tracer, w *world, texts []string, open bool, phase phaseFunc) (*outcome, error) {
	o := newOutcome()
	in, setup, st, err := setupMedian(w, p, serveOpts{}, tr, "")
	if err != nil {
		return nil, err
	}
	defer in.close()
	o.e2e["setup_s"] = setup.Seconds()
	o.e2e["heap_mb"] = liveHeapMB()
	o.layer["loop.link_f1"] = w.f1(in.srv.Snapshot().Links)
	filtered, total := in.sys.SpaceSize()
	o.layer["feature.space_filtered"], o.layer["feature.space_total"] = float64(filtered), float64(total)
	o.layer["core.candidate_links"] = float64(in.sys.CandidateCount())

	refs, err := references(in.srv, w.ds.Dict, texts)
	if err != nil {
		return nil, err
	}
	ver := newVerifier(refs)
	var rows, links atomic.Int64
	check := statusOK(func(i int, body []byte) error {
		if err := ver.check(i, body); err != nil {
			return fmt.Errorf("%w (query %q)", err, texts[i])
		}
		rows.Add(int64(refs[i].rows))
		links.Add(int64(refs[i].links))
		return nil
	})
	conns := []*conn{newConn(in.base), newConn(in.base)}
	ctl := newConn(in.base)
	defer func() {
		for _, c := range append(conns, ctl) {
			c.close()
		}
	}()
	bodies := queryBodies(texts)

	warm := phase(conns, bodies, false, check)
	m0, err := scrape(ctl.hc, in.base)
	if err != nil {
		return nil, err
	}
	rows.Store(0)
	links.Store(0)
	ls0 := tr.snapshot()
	pr := startProbe(p.dur / windows)
	s := phase(conns, bodies, true, check)
	ticks, p1 := pr.finish()
	ls1 := tr.snapshot()
	p0 := ticks[0]
	m1, err := scrape(ctl.hc, in.base)
	if err != nil {
		return nil, err
	}

	o.attempted = warm.attempted.Load() + s.attempted.Load()
	o.failed = warm.failed.Load() + s.failed.Load()
	o.problems = append(warm.problems, s.problems...)
	win := between(p0, p1)
	done := float64(len(s.obs))
	if done == 0 {
		return nil, fmt.Errorf("no query completed in the measured phase")
	}
	ws := windowed(s.obs, s.start, ticks)
	o.e2e["query_qps"] = ws.qps
	if open {
		// The offered rate fixes every full window's count; the whole
		// phase's completions over its elapsed time still show a
		// backlog that never drained.
		o.e2e["query_qps"] = done / win.elapsed.Seconds()
	}
	o.e2e["query_p50_ms"] = ws.p50
	o.layer["client.query_p99_ms"] = ws.p99
	o.e2e["cpu_us_per_request"] = ws.cpuUs
	o.e2e["allocs_per_request"] = ws.allocs

	setLayers(o, st, ls1.sub(ls0), win, done, float64(rows.Load()))
	evalUs := histMean(m0, m1, "alexd_query_duration_seconds") * 1e6
	hits := delta(m0, m1, "alexd_plan_cache_hits_total")
	misses := delta(m0, m1, "alexd_plan_cache_misses_total")
	o.layer["federation.plan_cache_hit_ratio"] = safeDiv(hits, hits+misses)
	o.layer["federation.plan_cache_evictions"] = delta(m0, m1, "alexd_plan_cache_evictions_total")
	o.layer["federation.eval_us"] = evalUs
	o.layer["federation.rows_per_query"] = safeDiv(float64(rows.Load()), done)
	o.layer["federation.links_per_row"] = safeDiv(float64(links.Load()), float64(rows.Load()))
	service := mean(s.lats())
	if open {
		o.layer["client.late_p99_ms"] = percentile(s.lates(), 0.99)
	}
	o.layer["server.query_self_us"] = service*1e3 - evalUs
	if tr != nil {
		o.layer["sparql.parse_us"] = parseMicros(texts)
	}
	return o, nil
}

// parseMicros times sparql.Parse over the workload's texts and returns
// the mean per parse, in microseconds.
func parseMicros(texts []string) float64 {
	n := 0
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		for _, q := range texts {
			if _, err := sparql.Parse(q); err != nil {
				return 0
			}
			n++
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(n)
}
