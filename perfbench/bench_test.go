package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"alex/internal/server"
)

func row(v string, ls ...server.LinkJSON) server.RowJSON {
	return server.RowJSON{Binding: map[string]server.TermJSON{"n": {Kind: "literal", Value: v}}, Links: ls}
}

func answer(t *testing.T, resp server.QueryResponse) []byte {
	t.Helper()
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestVerifierRejectsWrongAnswers(t *testing.T) {
	l1, l2 := server.LinkJSON{E1: "a", E2: "b"}, server.LinkJSON{E1: "c", E2: "d"}
	want := []server.RowJSON{row("x", l1), row("y", l2)}
	v := newVerifier([]reference{{canon: canonRows(want), rows: 2}})

	if err := v.check(0, answer(t, server.QueryResponse{Rows: want})); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	reordered := []server.RowJSON{row("y", l2), row("x", l1)}
	if err := v.check(0, answer(t, server.QueryResponse{Rows: reordered})); err != nil {
		t.Fatalf("reordered answer rejected: %v", err)
	}
	for name, resp := range map[string]server.QueryResponse{
		"wrong value":     {Rows: []server.RowJSON{row("x", l1), row("z", l2)}},
		"missing row":     {Rows: want[:1]},
		"lost provenance": {Rows: []server.RowJSON{row("x"), row("y", l2)}},
		"wrong link":      {Rows: []server.RowJSON{row("x", l2), row("y", l2)}},
		"degraded":        {Rows: want, DegradedSources: []string{"ds2"}},
	} {
		if err := v.check(0, answer(t, resp)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := v.check(0, []byte("{")); err == nil {
		t.Error("undecodable answer accepted")
	}
}

func TestFeedbackAccountRejectsDroppedItem(t *testing.T) {
	ok := feedbackAccount{ackedLinks: 300, barriers: 3, serverLinks: 300, serverEpochs: 3}
	if err := ok.check(); err != nil {
		t.Fatalf("balanced account rejected: %v", err)
	}
	dropped := ok
	dropped.serverLinks--
	if dropped.check() == nil {
		t.Error("dropped feedback item accepted")
	}
	extraEpisode := ok
	extraEpisode.serverEpochs++
	if extraEpisode.check() == nil {
		t.Error("episode closed without a barrier accepted")
	}
}

func TestSameLinksRejectsDivergentRestart(t *testing.T) {
	a, b, c := server.LinkJSON{E1: "a", E2: "b"}, server.LinkJSON{E1: "c", E2: "d"}, server.LinkJSON{E1: "e", E2: "f"}
	before := map[server.LinkJSON]bool{a: true, b: true}
	if err := sameLinks(before, map[server.LinkJSON]bool{a: true, b: true}); err != nil {
		t.Fatalf("identical sets rejected: %v", err)
	}
	for name, got := range map[string]map[server.LinkJSON]bool{
		"lost link":  {a: true},
		"extra link": {a: true, b: true, c: true},
		"swapped":    {a: true, c: true},
	} {
		if sameLinks(before, got) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40 (10..40 and 90..100)", got)
	}
}

// TestCheckersOnLiveServer feeds the checkers real answers from an
// in-process alexd: a corrupted reference, an over-counted feedback
// account and a link set missing one link must each fail.
func TestCheckersOnLiveServer(t *testing.T) {
	p := params{seed: 3, scale: 0.05}
	w, err := makeWorld("skewed-hub", p)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := startShard(w, serveOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	texts := []string{lookupText(w.iri(w.ds.Entities1[0]), lookupPreds[0]), joinTexts()[1]}
	refs, err := references(in.srv, w.ds.Dict, texts)
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(in.base)
	defer c.close()
	bodies := queryBodies(texts)
	good := newVerifier(refs)
	bad := append([]reference(nil), refs...)
	bad[0].canon += "\nextra row"
	corrupt := newVerifier(bad)
	for i := range texts {
		status, body, err := c.do(http.MethodPost, "/query", bodies[i])
		if err != nil || status != http.StatusOK {
			t.Fatalf("query %d: status %d, %v", i, status, err)
		}
		if err := good.check(i, body); err != nil {
			t.Errorf("query %d: live answer rejected: %v", i, err)
		}
		if i == 0 && corrupt.check(i, body) == nil {
			t.Error("answer accepted against a corrupted reference")
		}
	}

	m0, err := scrape(c.hc, in.base)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.query(bodies[0])
	if err != nil || len(resp.Rows) == 0 || len(resp.Rows[0].Links) == 0 {
		t.Fatalf("lookup returned no linked row: %v", err)
	}
	n, err := c.feedback(resp.Rows[0], true)
	if err != nil {
		t.Fatal(err)
	}
	var m1 promText
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m1, err = scrape(c.hc, in.base); err != nil {
			t.Fatal(err)
		}
		if delta(m0, m1, "alexd_feedback_links_total") == float64(n) {
			break
		}
	}
	applied := int64(delta(m0, m1, "alexd_feedback_links_total"))
	if err := (feedbackAccount{ackedLinks: int64(n), serverLinks: applied}).check(); err != nil {
		t.Fatalf("live account rejected: %v", err)
	}
	if (feedbackAccount{ackedLinks: int64(n) + 1, serverLinks: applied}).check() == nil {
		t.Error("feedback item the server never applied was accepted")
	}

	served := linkSetIRIs(w.ds.Dict, in.srv.Snapshot().Links)
	diverged := map[server.LinkJSON]bool{}
	for l := range served {
		diverged[l] = true
	}
	for l := range diverged {
		delete(diverged, l)
		break
	}
	if sameLinks(served, diverged) == nil {
		t.Error("restart missing a link was accepted")
	}
}

// smoke runs one workload on a tiny world, untraced and traced, and
// checks that it reports every metric and passes its checks.
func smoke(t *testing.T, name string, seed int64) {
	p := params{workload: name, seed: seed, dur: 300 * time.Millisecond, out: t.TempDir(),
		scale: 0.1, setups: 1, warmup: 100 * time.Millisecond}
	for _, tr := range []*tracer{nil, newTracer()} {
		o, err := workloads[name](p, tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range o.problems {
			t.Errorf("check failed (traced=%v): %s", tr != nil, pr)
		}
		if o.attempted < 1 || o.failed != 0 {
			t.Errorf("attempted %d, failed %d", o.attempted, o.failed)
		}
		for m := range e2eUnits {
			if v, ok := o.e2e[m]; !ok || v <= 0 {
				t.Errorf("%s = %v (present %v), want > 0", m, v, ok)
			}
		}
	}
}

// TestSmoke runs every workload of BENCHMARK.json on a tiny world.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	for _, name := range []string{"lookup", "join", "feedback", "fleet"} {
		t.Run(name, func(t *testing.T) { smoke(t, name, 5) })
	}
}

// TestRestartRecoversPreCrashLinks crashes the feedback loop's server
// and reopens it over several seeds; each recovered link set must equal
// the pre-crash one. It fails while recovery through a checkpoint
// diverges (README.md, "Known failure").
func TestRestartRecoversPreCrashLinks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the feedback loop several times")
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { smoke(t, "restart", seed) })
	}
}
