package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"alex/internal/federation"
	"alex/internal/fleet"
	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/server"
	"alex/internal/synth"
)

const (
	// feedbackEpisodes sizes the feedback workload by work, not time:
	// the loop ends at this many episode barriers of episodeSize
	// link-level items each.
	feedbackEpisodes = 100
	episodeSize      = 100
	// episodesPerWindow groups the loop's episodes into the sub-windows
	// its figures take medians over.
	episodesPerWindow = 20
	// readerRate is the feedback workload's background lookup rate.
	readerRate = 400
	// fleetOps is each fleet client's number of lookup iterations.
	fleetOps = 20000
	// fleetWindow is the sub-window the fleet figures take medians over.
	fleetWindow = time.Second
	// fleetFeedbackEvery: one lookup in this many is judged (alexload's
	// loop at -feedback-frac 0.1).
	fleetFeedbackEvery = 10
)

// queryDrivenPreds are the querydriven experiment's templates: a
// dataset-2 property of a dataset-1 entity.
var queryDrivenPreds = []rdf.Term{synth.P2Group, synth.P2Born, synth.P2Place}

// linkSetIRIs renders a served link set as IRI pairs.
func linkSetIRIs(dict *rdf.Dict, ls links.Set) map[server.LinkJSON]bool {
	out := make(map[server.LinkJSON]bool, ls.Len())
	for l := range ls {
		out[server.LinkJSON{E1: dict.Term(l.E1).Value, E2: dict.Term(l.E2).Value}] = true
	}
	return out
}

func (w *world) groundTruthIRIs() map[server.LinkJSON]bool {
	return linkSetIRIs(w.ds.Dict, w.ds.GroundTruth)
}

// judge is the simulated user: an answer row is right exactly when
// every link it used is a true link.
func judge(gt map[server.LinkJSON]bool, row server.RowJSON) bool {
	for _, l := range row.Links {
		if !gt[l] {
			return false
		}
	}
	return true
}

// sortRows puts answer rows in a canonical order, so the feedback
// sequence does not depend on the evaluator's row order.
func sortRows(rows []server.RowJSON) {
	key := func(r server.RowJSON) string { return canonRows([]server.RowJSON{r}) }
	sort.Slice(rows, func(i, j int) bool { return key(rows[i]) < key(rows[j]) })
}

// query posts one /query and decodes the answer.
func (c *conn) query(body []byte) (*server.QueryResponse, error) {
	status, raw, err := c.do(http.MethodPost, "/query", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/query status %d: %.200s", status, raw)
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	if len(resp.DegradedSources) > 0 {
		return nil, fmt.Errorf("degraded answer (sources %v)", resp.DegradedSources)
	}
	return &resp, nil
}

// feedback posts one answer-level verdict and returns the link-level
// items the server acknowledged.
func (c *conn) feedback(row server.RowJSON, approve bool) (int, error) {
	body, _ := json.Marshal(server.FeedbackRequest{Approve: approve, Links: row.Links})
	status, raw, err := c.do(http.MethodPost, "/feedback", body)
	if err != nil {
		return 0, err
	}
	if status != http.StatusAccepted {
		return 0, fmt.Errorf("/feedback status %d: %.200s", status, raw)
	}
	var ack server.FeedbackResponse
	if err := json.Unmarshal(raw, &ack); err != nil {
		return 0, err
	}
	if !ack.Queued || ack.Links != len(row.Links) {
		return 0, fmt.Errorf("/feedback acked %d links of %d", ack.Links, len(row.Links))
	}
	return ack.Links, nil
}

// reader runs open-loop lookups at rate until stop closes; it measures
// read latency beside the writes of the loop.
func reader(c *conn, texts [][]byte, rate float64, seed int64, stop <-chan struct{}) *samples {
	s := newSamples()
	rng := rand.New(rand.NewSource(seed))
	period := time.Duration(float64(time.Second) / rate)
	start := s.start
	var (
		got  []obs
		free time.Time
	)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		select {
		case <-stop:
			s.add(got)
			return s
		case <-time.After(time.Until(due)):
		}
		sent := time.Now()
		s.attempted.Add(1)
		status, body, err := c.do(http.MethodPost, "/query", texts[rng.Intn(len(texts))])
		done := time.Now()
		if err == nil && (status != http.StatusOK || !json.Valid(body)) {
			err = fmt.Errorf("reader /query status %d", status)
		}
		if err != nil {
			s.fail(err)
			continue
		}
		var o obs
		o, free = openObs(start, due, sent, done, free)
		got = append(got, o)
	}
}

// runFeedback: the paper's Figure-1 loop against a durable alexd over
// dbpedia-nytimes. One client queries a uniform dataset-1 entity with
// the querydriven templates, judges every answer row that used links
// against the ground truth and posts one /feedback per row; after the
// item that fills an episode it waits until /healthz shows the new
// snapshot. A second connection reads at readerRate throughout.
//
// Each of the p.setups set-ups runs its own loop, on a seed of its own,
// and every figure is the median over the loops. ALEX's learning
// trajectory, and with it how many queries a loop takes to collect its
// judged links, differs from seed to seed, so one loop's query rate
// spread 0.18 of the median over ten seeds.
func runFeedback(p params, tr *tracer) (*outcome, error) {
	loops := make([]*outcome, p.setups)
	for i := range loops {
		q := p
		q.seed, q.setups = p.seed*int64(p.setups)+int64(i), 1
		o, err := feedbackLoop(q, tr, false)
		if err != nil {
			return nil, err
		}
		loops[i] = o
	}
	return medianOutcome(loops), nil
}

// medianOutcome merges outcomes of the same workload: every figure is
// the median over them; operations and failed checks add up.
func medianOutcome(outs []*outcome) *outcome {
	m := newOutcome()
	e2e, layer := map[string][]float64{}, map[string][]float64{}
	for _, o := range outs {
		m.attempted += o.attempted
		m.failed += o.failed
		m.problems = append(m.problems, o.problems...)
		for k, v := range o.e2e {
			e2e[k] = append(e2e[k], v)
		}
		for k, v := range o.layer {
			layer[k] = append(layer[k], v)
		}
	}
	for k, vs := range e2e {
		m.e2e[k] = median(vs)
	}
	for k, vs := range layer {
		m.layer[k] = median(vs)
	}
	return m
}

// runRestart runs the feedback loop, then crashes the server
// (Server.Abort) and reopens the same data dir along alexd's warm disk
// path; the recovered link set must equal the pre-crash snapshot.
func runRestart(p params, tr *tracer) (*outcome, error) { return feedbackLoop(p, tr, true) }

func feedbackLoop(p params, tr *tracer, crash bool) (*outcome, error) {
	o := newOutcome()
	w, err := makeWorld("dbpedia-nytimes", p)
	if err != nil {
		return nil, err
	}
	dataRoot, err := os.MkdirTemp(p.out, "perfbench-data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataRoot)
	// The flush ticker fires at fixed wall-clock periods, so at alexd's
	// 250ms it would cut episodes wherever the clock falls. Lifted past
	// the run, episodes close only at episodeSize items.
	opts := serveOpts{disk: true, flush: time.Hour}
	in, setup, st, err := setupMedian(w, p, opts, tr, dataRoot)
	if err != nil {
		return nil, err
	}
	opts.dataDir = filepath.Join(dataRoot, fmt.Sprintf("setup-%d", p.setups-1))
	o.e2e["setup_s"] = setup.Seconds()
	o.e2e["heap_mb"] = liveHeapMB()
	filtered, total := in.sys.SpaceSize()
	o.layer["feature.space_filtered"], o.layer["feature.space_total"] = float64(filtered), float64(total)

	gt := w.groundTruthIRIs()
	e1 := make([]string, len(w.ds.Entities1))
	for i, e := range w.ds.Entities1 {
		e1[i] = w.iri(e)
	}
	readTexts := make([]string, len(e1))
	for i, e := range e1 {
		readTexts[i] = lookupText(e, synth.P2Name)
	}
	readBodies := queryBodies(readTexts)
	var withLinks *federation.Federator
	if tr != nil {
		withLinks = federation.New(w.ds.Dict)
		for _, src := range in.sources {
			if err := withLinks.Add(src); err != nil {
				return nil, err
			}
		}
	}

	lc, rc, ctl := newConn(in.base), newConn(in.base), newConn(in.base)
	defer func() {
		for _, c := range []*conn{lc, rc, ctl} {
			c.close()
		}
	}()
	var h0 server.HealthResponse
	if err := ctl.getJSON("/healthz", &h0); err != nil {
		in.close()
		return nil, err
	}
	m0, err := scrape(ctl.hc, in.base)
	if err != nil {
		in.close()
		return nil, err
	}
	gen0 := in.stores.Generation()

	stop := make(chan struct{})
	var (
		rs *samples
		wg sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rs = reader(rc, readBodies, readerRate, p.seed*7+1, stop)
	}()

	rng := rand.New(rand.NewSource(p.seed))
	var (
		acct             feedbackAccount
		ackMs, publishMs []float64
		loopQueries      int
		feedbacks        int64
		pending          int
		version          = h0.SnapshotVersion
		loopFailed       int64
		reqID            uint64
	)
	ls0 := tr.snapshot()
	ticks := []procSample{sampleProc()}
	loopStart := ticks[0].at
	var loopObs []obs
loop:
	for acct.barriers < feedbackEpisodes {
		e := e1[rng.Intn(len(e1))]
		pred := queryDrivenPreds[rng.Intn(len(queryDrivenPreds))]
		body, _ := json.Marshal(map[string]string{"query": fmt.Sprintf("SELECT ?v WHERE { <%s> <%s> ?v . }", e, pred.Value)})
		reqID++
		qs := tr.begin("http.query", 0, reqID)
		sent := time.Now()
		resp, err := lc.query(body)
		loopObs = append(loopObs, obs{at: sent.Sub(loopStart), lat: ms(time.Since(sent))})
		qs.end()
		loopQueries++
		if err != nil {
			loopFailed++
			o.fail("loop query: %v", err)
			break
		}
		sortRows(resp.Rows)
		for _, row := range resp.Rows {
			if len(row.Links) == 0 {
				continue
			}
			fs := tr.begin("http.feedback", 0, reqID)
			if tr != nil {
				tr.openID.Store(fs.id)
				tr.openReq.Store(reqID)
			}
			t0 := time.Now()
			n, err := lc.feedback(row, judge(gt, row))
			ackMs = append(ackMs, ms(time.Since(t0)))
			fs.end()
			if tr != nil {
				tr.openID.Store(0)
				tr.openReq.Store(0)
			}
			feedbacks++
			if err != nil {
				loopFailed++
				o.fail("loop feedback: %v", err)
				break loop
			}
			acct.ackedLinks += int64(n)
			pending += n
			if pending < episodeSize {
				continue
			}
			pending = 0
			ps := tr.begin("publish.wait", 0, reqID)
			v, err := awaitVersion(ctl, version, t0.Add(30*time.Second))
			publishMs = append(publishMs, ms(time.Since(t0))-ackMs[len(ackMs)-1])
			ps.end()
			if err != nil {
				loopFailed++
				o.fail("publish: %v", err)
				break loop
			}
			version = v
			acct.barriers++
			if acct.barriers%episodesPerWindow == 0 {
				ticks = append(ticks, sampleProc())
			}
			if withLinks != nil {
				sp := tr.begin("federation.with_links", 0, reqID)
				withLinks.WithLinks(in.srv.Snapshot().Links)
				sp.end()
			}
			if acct.barriers == feedbackEpisodes {
				break loop
			}
		}
	}
	loopTime := time.Since(loopStart)
	p1, ls1 := sampleProc(), tr.snapshot()
	close(stop)
	wg.Wait()

	m1, err := scrape(ctl.hc, in.base)
	if err != nil {
		in.close()
		return nil, err
	}
	acct.serverLinks = int64(delta(m0, m1, "alexd_feedback_links_total"))
	acct.serverEpochs = int64(delta(m0, m1, "alexd_episodes_total"))
	if err := acct.check(); err != nil {
		o.fail("feedback accounting: %v", err)
	}
	snap := in.srv.Snapshot()
	o.layer["loop.link_f1"] = w.f1(snap.Links)
	before := linkSetIRIs(w.ds.Dict, snap.Links)
	o.layer["core.candidate_links"] = float64(snap.Links.Len())

	if crash {
		if err := restartCheck(o, w, opts, tr, in, before, readBodies[0]); err != nil {
			return nil, err
		}
	} else if err := in.close(); err != nil {
		o.fail("close: %v", err)
	}

	queries := float64(loopQueries + len(rs.obs))
	win := between(ticks[0], p1)
	if len(ticks) < 2 {
		return nil, fmt.Errorf("feedback loop ended after %d episodes", acct.barriers)
	}
	// Reader and loop queries on one clock, the loop's.
	shift := rs.start.Sub(loopStart)
	reads := make([]obs, len(rs.obs))
	for i, r := range rs.obs {
		reads[i] = obs{at: r.at + shift, lat: r.lat}
	}
	all := windowed(append(reads, loopObs...), loopStart, ticks)
	read := windowed(reads, loopStart, ticks)
	o.attempted += int64(loopQueries) + feedbacks + rs.attempted.Load()
	o.failed += loopFailed + rs.failed.Load()
	o.problems = append(o.problems, rs.problems...)
	o.e2e["query_qps"] = all.qps
	o.e2e["query_p50_ms"] = read.p50
	o.layer["client.query_p99_ms"] = percentile(rs.lats(), 0.99)
	// CPU and allocations are taken over the whole loop, per request:
	// its work is fixed by the judged links, but how many queries it
	// takes to find them follows the seed's learning trajectory: over
	// four seeds, 2744 to 3757 loop queries, 244 to 261 allocations per
	// request.
	requests := queries + float64(len(ackMs))
	o.e2e["cpu_us_per_request"] = float64(win.cpu.Microseconds()) / requests
	o.e2e["allocs_per_request"] = float64(win.mallocs) / requests

	o.layer["loop.feedback_ack_p50_ms"] = percentile(ackMs, 0.50)
	o.layer["loop.feedback_ack_p99_ms"] = percentile(ackMs, 0.99)
	o.layer["loop.publish_p50_ms"] = percentile(publishMs, 0.50)
	o.layer["loop.publish_p90_ms"] = percentile(publishMs, 0.90)
	o.layer["loop.feedback_links_per_s"] = float64(acct.ackedLinks) / loopTime.Seconds()
	o.layer["loop.episodes"] = float64(acct.barriers)

	d := ls1.sub(ls0)
	setLayers(o, st, d, win, queries, delta(m0, m1, "alexd_query_rows_total"))
	o.layer["store.checkpoint_ms"] = m1["alexd_store_checkpoint_seconds"] * 1e3
	o.layer["store.compactions"] = float64(in.stores.Generation() - gen0)
	o.layer["server.checkpoint_ms"] = histMean(m0, m1, "alexd_checkpoint_seconds") * 1e3
	o.layer["server.checkpoints"] = delta(m0, m1, "alexd_checkpoints_total")
	walUs := histMean(m0, m1, "alexd_journal_fsync_seconds") * 1e6
	o.layer["wal.append_us"] = walUs
	o.layer["server.feedback_self_us"] = mean(ackMs)*1e3 - walUs
	o.layer["wal.fsyncs_per_feedback"] = safeDiv(float64(d.syncs), float64(feedbacks))
	o.layer["wal.bytes_per_feedback"] = safeDiv(float64(d.writeBytes), float64(feedbacks))
	evalUs := histMean(m0, m1, "alexd_query_duration_seconds") * 1e6
	o.layer["federation.eval_us"] = evalUs
	o.layer["federation.rows_per_query"] = safeDiv(delta(m0, m1, "alexd_query_rows_total"), delta(m0, m1, "alexd_queries_total"))
	hits, misses := delta(m0, m1, "alexd_plan_cache_hits_total"), delta(m0, m1, "alexd_plan_cache_misses_total")
	o.layer["federation.plan_cache_hit_ratio"] = safeDiv(hits, hits+misses)
	o.layer["federation.plan_cache_evictions"] = delta(m0, m1, "alexd_plan_cache_evictions_total")
	o.layer["client.late_p99_ms"] = percentile(rs.lates(), 0.99)
	spanLayers(o, tr)
	if tr != nil {
		o.layer["sparql.parse_us"] = parseMicros(readTexts[:50])
	}
	return o, nil
}

// restartCheck crashes in, reopens its data dir along alexd's warm
// path and checks that the recovered link set equals before, the
// pre-crash snapshot. The first query after the reopen ends restart_s.
func restartCheck(o *outcome, w *world, opts serveOpts, tr *tracer, in *instance, before map[server.LinkJSON]bool, firstQuery []byte) error {
	in.crash()
	defer in.stores.Close()
	restartStart := time.Now()
	in2, st2, err := startShard(w, opts, tr)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	rc2 := newConn(in2.base)
	_, err = rc2.query(firstQuery)
	restart := time.Since(restartStart)
	rc2.close()
	o.attempted++
	if err != nil {
		o.failed++
		o.fail("first query after restart: %v", err)
	}
	if err := sameLinks(before, linkSetIRIs(in2.stores.Dict(), in2.srv.Snapshot().Links)); err != nil {
		o.fail("restart: %v", err)
	}
	replayed := in2.srv.Recovery().Replayed
	if err := in2.close(); err != nil {
		o.fail("close after restart: %v", err)
	}
	o.layer["loop.restart_s"] = restart.Seconds()
	o.layer["restart.core_new_s"] = st2.coreNew.Seconds()
	o.layer["store.open_s"] = st2.storeOpen.Seconds()
	o.layer["server.recover_s"] = st2.serverNew.Seconds()
	o.layer["server.replayed_records"] = float64(replayed)
	return nil
}

// spanLayers records the per-call means of the engine spans and the
// link-set rebuilds timed by the traced pass.
func spanLayers(o *outcome, tr *tracer) {
	if tr == nil {
		return
	}
	spans := tr.stats()
	for name, key := range map[string]string{
		"core.finish_episode":   "core.finish_episode_ms",
		"core.candidates":       "core.candidates_ms",
		"core.save":             "core.save_ms",
		"federation.with_links": "federation.with_links_ms",
	} {
		if s := spans[name]; s != nil {
			o.layer[key] = s.MeanMs
		}
	}
}

// awaitVersion polls /healthz until the snapshot version passes v.
func awaitVersion(c *conn, v uint64, deadline time.Time) (uint64, error) {
	for {
		var h server.HealthResponse
		if err := c.getJSON("/healthz", &h); err != nil {
			return 0, err
		}
		if h.SnapshotVersion > v {
			return h.SnapshotVersion, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("snapshot still at v%d", h.SnapshotVersion)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// fleetRig is two durable alexd shards and an alexrouter in front.
type fleetRig struct {
	shards []*instance
	router *fleet.Router
	front  *instance
}

func (f *fleetRig) close() error {
	f.front.stopHTTP()
	err := f.router.Close()
	for _, s := range f.shards {
		if cerr := s.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// startFleet brings up the shards as cmd/alexd -shard-id/-fleet does
// and the router as cmd/alexrouter does with its flag defaults.
func startFleet(w *world, n int, dataDir string, tr *tracer) (*fleetRig, setupTimes, error) {
	t0 := time.Now()
	rig := &fleetRig{}
	var sum setupTimes
	addrs := make([]string, n)
	for id := 0; id < n; id++ {
		in, st, err := startShard(w, serveOpts{
			dataDir: filepath.Join(dataDir, fmt.Sprintf("shard-%d", id)), shardID: id, shards: n,
			// As in the feedback workload: a run sized by operations must
			// not have its episodes cut by the wall-clock flush ticker.
			flush: time.Hour,
		}, tr)
		if err != nil {
			return nil, sum, err
		}
		rig.shards = append(rig.shards, in)
		addrs[id] = in.base
		sum.paris += st.paris
		sum.coreNew += st.coreNew
		sum.serverNew += st.serverNew
	}
	for _, in := range rig.shards {
		if err := in.srv.SetPeers(addrs); err != nil {
			return nil, sum, err
		}
	}
	r, err := fleet.New(fleet.Config{
		Shards:         addrs,
		HealthInterval: time.Second,
		QueryTimeout:   10 * time.Second,
		Breaker:        federation.BreakerConfig{Failures: 5, Cooldown: 5 * time.Second, Successes: 2},
	})
	if err != nil {
		return nil, sum, err
	}
	rig.router = r
	front, err := listen(r.Handler())
	if err != nil {
		r.Close()
		return nil, sum, err
	}
	rig.front = front
	sum.total = time.Since(t0)
	return rig, sum, nil
}

// runFleet: dbpedia-nytimes behind alexrouter over two durable shards;
// two closed-loop clients run alexload's loop (lookup, then feedback on
// one answer in fleetFeedbackEvery), fleetOps iterations each.
func runFleet(p params, tr *tracer) (*outcome, error) {
	o := newOutcome()
	w, err := makeWorld("dbpedia-nytimes", p)
	if err != nil {
		return nil, err
	}
	dataRoot, err := os.MkdirTemp(p.out, "perfbench-data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataRoot)
	var (
		rig    *fleetRig
		st     setupTimes
		totals []float64
	)
	for i := 0; i < p.setups; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, err
			}
		}
		rig, st, err = startFleet(w, 2, filepath.Join(dataRoot, fmt.Sprintf("setup-%d", i)), tr)
		if err != nil {
			return nil, err
		}
		totals = append(totals, st.total.Seconds())
	}
	defer rig.close()
	o.e2e["setup_s"] = median(totals)
	o.e2e["heap_mb"] = liveHeapMB()
	for _, in := range rig.shards {
		filtered, total := in.sys.SpaceSize()
		o.layer["feature.space_filtered"] += float64(filtered)
		o.layer["feature.space_total"] += float64(total)
	}

	gt := w.groundTruthIRIs()
	ctl := newConn(rig.front.base)
	defer ctl.close()
	var ls server.LinksResponse
	if err := ctl.getJSON("/links", &ls); err != nil {
		return nil, err
	}
	// alexload draws its entities from the published link set.
	seen := map[string]bool{}
	var ents []string
	for _, l := range ls.Links {
		if !seen[l.E1] {
			seen[l.E1] = true
			ents = append(ents, l.E1)
		}
	}
	sort.Strings(ents)
	if len(ents) == 0 {
		return nil, fmt.Errorf("fleet serves no links")
	}
	scrapeAll := func() ([]promText, error) {
		var out []promText
		for _, in := range append(rig.shards, rig.front) {
			m, err := scrape(ctl.hc, in.base)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
		return out, nil
	}
	m0, err := scrapeAll()
	if err != nil {
		return nil, err
	}

	type clientStats struct {
		qObs                  []obs
		ackMs                 []float64
		queries, feedbacks    int64
		acked, failed, errors int64
		problems              []string
	}
	stats := make([]*clientStats, 2)
	ls0 := tr.snapshot()
	pr := startProbe(fleetWindow)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range stats {
		cs := &clientStats{}
		stats[c] = cs
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := newConn(rig.front.base)
			defer cn.close()
			rng := rand.New(rand.NewSource(p.seed*131 + int64(c)))
			for k := 0; k < fleetOps; k++ {
				e := ents[rng.Intn(len(ents))]
				body, _ := json.Marshal(map[string]string{"query": lookupText(e, synth.P2Name)})
				t0 := time.Now()
				resp, err := cn.query(body)
				cs.queries++
				if err != nil {
					cs.failed++
					if len(cs.problems) < 3 {
						cs.problems = append(cs.problems, "fleet query: "+err.Error())
					}
					continue
				}
				cs.qObs = append(cs.qObs, obs{at: t0.Sub(start), lat: ms(time.Since(t0))})
				if len(resp.Rows) == 0 || rng.Intn(fleetFeedbackEvery) != 0 {
					continue
				}
				sortRows(resp.Rows)
				row := resp.Rows[rng.Intn(len(resp.Rows))]
				if len(row.Links) == 0 {
					continue
				}
				t1 := time.Now()
				n, err := cn.feedback(row, judge(gt, row))
				cs.feedbacks++
				if err != nil {
					cs.failed++
					if len(cs.problems) < 3 {
						cs.problems = append(cs.problems, "fleet feedback: "+err.Error())
					}
					continue
				}
				cs.ackMs = append(cs.ackMs, ms(time.Since(t1)))
				cs.acked += int64(n)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	ticks, p1 := pr.finish()
	ls1 := tr.snapshot()

	var (
		qObs  []obs
		ackMs []float64
	)
	var queries, feedbacks, acked int64
	for _, cs := range stats {
		qObs = append(qObs, cs.qObs...)
		ackMs = append(ackMs, cs.ackMs...)
		queries += cs.queries
		feedbacks += cs.feedbacks
		acked += cs.acked
		o.failed += cs.failed
		o.problems = append(o.problems, cs.problems...)
	}
	o.attempted = queries + feedbacks

	// Acked feedback must all reach the owners' writers: wait for the
	// shards' applied-link counters to catch up, then compare.
	var m1 []promText
	deadline := time.Now().Add(15 * time.Second)
	for {
		if m1, err = scrapeAll(); err != nil {
			return nil, err
		}
		applied := 0.0
		for i := range rig.shards {
			applied += delta(m0[i], m1[i], "alexd_feedback_links_total")
		}
		if int64(applied) == acked {
			break
		}
		if time.Now().After(deadline) {
			o.fail("fleet feedback accounting: acked %d links, shards applied %.0f", acked, applied)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	own := links.NewSet()
	for _, in := range rig.shards {
		for l := range in.srv.Snapshot().Own {
			own.Add(l)
		}
	}
	o.layer["loop.link_f1"] = w.f1(own)
	o.layer["core.candidate_links"] = float64(own.Len())

	win := between(ticks[0], p1)
	done := float64(len(qObs))
	if done == 0 || len(ticks) < 2 {
		return nil, fmt.Errorf("fleet run too short to measure: %d queries in %s", len(qObs), elapsed)
	}
	ws := windowed(qObs, start, ticks)
	o.e2e["query_qps"] = ws.qps
	o.e2e["query_p50_ms"] = ws.p50
	requests := done + float64(len(ackMs))
	o.e2e["cpu_us_per_request"] = float64(win.cpu.Microseconds()) / requests
	o.e2e["allocs_per_request"] = float64(win.mallocs) / requests
	qLat := make([]float64, len(qObs))
	for i, q := range qObs {
		qLat[i] = q.lat
	}
	o.layer["client.query_p99_ms"] = percentile(qLat, 0.99)
	o.layer["loop.feedback_ack_p50_ms"] = percentile(ackMs, 0.50)
	o.layer["loop.feedback_ack_p99_ms"] = percentile(ackMs, 0.99)
	o.layer["loop.feedback_links_per_s"] = float64(acked) / elapsed.Seconds()

	d := ls1.sub(ls0)
	rt := len(rig.shards)
	var evalSum, evalCount, walSum, walCount, rows, shardQueries, hits, misses, ckptSum, ckpts float64
	for i := 0; i < rt; i++ {
		hits += delta(m0[i], m1[i], "alexd_plan_cache_hits_total")
		misses += delta(m0[i], m1[i], "alexd_plan_cache_misses_total")
		o.layer["federation.plan_cache_evictions"] += delta(m0[i], m1[i], "alexd_plan_cache_evictions_total")
		ckptSum += delta(m0[i], m1[i], "alexd_checkpoint_seconds_sum")
		ckpts += delta(m0[i], m1[i], "alexd_checkpoints_total")
		evalSum += delta(m0[i], m1[i], "alexd_query_duration_seconds_sum")
		evalCount += delta(m0[i], m1[i], "alexd_query_duration_seconds_count")
		walSum += delta(m0[i], m1[i], "alexd_journal_fsync_seconds_sum")
		walCount += delta(m0[i], m1[i], "alexd_journal_fsync_seconds_count")
		rows += delta(m0[i], m1[i], "alexd_query_rows_total")
		shardQueries += delta(m0[i], m1[i], "alexd_queries_total")
	}
	setLayers(o, st, d, win, done, rows)
	evalUs := safeDiv(evalSum, evalCount) * 1e6
	walUs := safeDiv(walSum, walCount) * 1e6
	o.layer["federation.eval_us"] = evalUs
	o.layer["federation.rows_per_query"] = safeDiv(rows, shardQueries)
	o.layer["federation.plan_cache_hit_ratio"] = safeDiv(hits, hits+misses)
	o.layer["server.checkpoints"] = ckpts
	o.layer["server.checkpoint_ms"] = safeDiv(ckptSum, ckpts) * 1e3
	o.layer["wal.append_us"] = walUs
	o.layer["wal.fsyncs_per_feedback"] = safeDiv(float64(d.syncs), float64(feedbacks))
	o.layer["wal.bytes_per_feedback"] = safeDiv(float64(d.writeBytes), float64(feedbacks))
	o.layer["server.feedback_self_us"] = mean(ackMs)*1e3 - walUs
	rm0, rm1 := m0[rt], m1[rt]
	o.layer["fleet.shards_per_query"] = histMean(rm0, rm1, "alexrouter_query_fanout")
	o.layer["fleet.route_self_us"] = mean(qLat)*1e3 - evalUs
	o.layer["fleet.txn_frac"] = safeDiv(delta(rm0, rm1, "alexrouter_feedback_txns_total"), delta(rm0, rm1, "alexrouter_feedback_total"))
	o.layer["fleet.hedges_per_query"] = safeDiv(delta(rm0, rm1, "alexrouter_hedged_queries_total"), delta(rm0, rm1, "alexrouter_queries_total"))
	spanLayers(o, tr)
	if tr != nil {
		texts := make([]string, 0, 50)
		for _, e := range ents[:min(50, len(ents))] {
			texts = append(texts, lookupText(e, synth.P2Name))
		}
		o.layer["sparql.parse_us"] = parseMicros(texts)
	}
	return o, nil
}
