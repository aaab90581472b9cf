package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"alex/internal/cluster"
	"alex/internal/core"
	"alex/internal/eval"
	"alex/internal/federation"
	"alex/internal/links"
	"alex/internal/paris"
	"alex/internal/rdf"
	"alex/internal/server"
	"alex/internal/store"
	"alex/internal/synth"
	"alex/internal/wal"
)

// world is one generated dataset pair. Generating it is the benchmark's
// own work and is not part of setup_s. It is the profile's own pair:
// the profiles are tuned, through their seeds, to the quality regimes
// of the paper's experiments, so a run's seed drives the traffic and
// leaves the world alone.
type world struct {
	prof synth.Profile
	ds   *synth.Dataset
	name [2]string // federation source names, as cmd/alexd names them
	meta string    // store identity stamp
}

func makeWorld(profile string, p params) (*world, error) {
	prof, ok := synth.ProfileByName(profile)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", profile)
	}
	if p.scale != 1 {
		prof = prof.Scale(p.scale)
	}
	return &world{
		prof: prof,
		ds:   synth.Generate(prof),
		name: [2]string{prof.Name + "-1", prof.Name + "-2"},
		meta: fmt.Sprintf("profile=%s scale=%g", prof.Name, p.scale),
	}, nil
}

func (w *world) iri(id rdf.ID) string { return w.ds.Dict.Term(id).Value }

// f1 scores a served link set against the generated ground truth.
func (w *world) f1(ls links.Set) float64 { return eval.Compute(ls, w.ds.GroundTruth).F1 }

// serveOpts are the cmd/alexd flags a workload deviates from the
// defaults with.
type serveOpts struct {
	disk    bool          // -store=disk
	dataDir string        // -data; empty disables durability
	flush   time.Duration // -flush; 0 keeps alexd's 250ms
	shardID int           // -shard-id, with shards > 0
	shards  int           // len(-fleet)
}

// setupTimes splits one set-up into the layers it called.
type setupTimes struct {
	paris, storeBuild, storeOpen, coreNew, serverNew, total time.Duration
}

// instance is one serving alexd: the server, its HTTP listener on
// loopback and what it was built from.
type instance struct {
	srv    *server.Server
	sys    *core.System
	hs     *http.Server
	base   string
	stores *store.Set
	// sources are the federation sources, unwrapped.
	sources []federation.Source
	served  chan error
}

// startShard brings up one alexd the way cmd/alexd does: warm-open the
// segment store when -store=disk finds one, else run PARIS (and build
// the store), partition for a fleet shard, core.New, server.New, listen.
// It returns once the server can answer requests.
func startShard(w *world, o serveOpts, tr *tracer) (*instance, setupTimes, error) {
	var (
		st     setupTimes
		t0     = time.Now()
		dict   = w.ds.Dict
		t1, t2 store.TripleStore
		e1, e2 []rdf.ID
		init   []links.Link
		stores *store.Set
	)
	if o.disk {
		dir := filepath.Join(o.dataDir, "store")
		start := time.Now()
		sp := tr.begin("store.open", 0, 0)
		set, err := store.Open(dir, store.Options{Meta: w.meta})
		sp.end()
		switch {
		case err == nil:
			st.storeOpen = time.Since(start)
			stores = set
			dict = set.Dict()
			t1, t2 = set.Source(w.name[0]), set.Source(w.name[1])
			e1 = append([]rdf.ID(nil), set.Entities(w.name[0])...)
			e2 = append([]rdf.ID(nil), set.Entities(w.name[1])...)
			ls, ok := set.InitialLinks()
			if !ok || t1 == nil || t2 == nil {
				return nil, st, fmt.Errorf("store in %s is incomplete", dir)
			}
			init = append([]links.Link(nil), ls...)
		case errors.Is(err, store.ErrNoStore):
		default:
			return nil, st, err
		}
	}
	if stores == nil {
		g1, g2 := w.ds.G1, w.ds.G2
		e1 = append([]rdf.ID(nil), w.ds.Entities1...)
		e2 = append([]rdf.ID(nil), w.ds.Entities2...)
		start := time.Now()
		sp := tr.begin("paris.link", 0, 0)
		scored := paris.Link(g1, g2, e1, e2, paris.NewOptions())
		sp.end()
		init = make([]links.Link, len(scored))
		for i, s := range scored {
			init[i] = s.Link
		}
		st.paris = time.Since(start)
		t1, t2 = g1, g2
		if o.disk {
			start := time.Now()
			sp := tr.begin("store.build", 0, 0)
			set, err := buildStore(w, filepath.Join(o.dataDir, "store"), e1, e2, init)
			sp.end()
			if err != nil {
				return nil, st, err
			}
			st.storeBuild = time.Since(start)
			stores = set
			t1, t2 = set.Source(w.name[0]), set.Source(w.name[1])
		}
	}

	var fleetCfg *server.FleetConfig
	if o.shards > 0 {
		ranges := cluster.FleetRanges(o.shards)
		own := ranges[o.shardID]
		kept := e1[:0]
		for _, e := range e1 {
			if own.ContainsIRI(dict.Term(e).Value) {
				kept = append(kept, e)
			}
		}
		e1 = kept
		keptLinks := init[:0]
		for _, l := range init {
			if cluster.OwnerOf(ranges, dict.Term(l.E1).Value) == o.shardID {
				keptLinks = append(keptLinks, l)
			}
		}
		init = keptLinks
		fleetCfg = &server.FleetConfig{ShardID: o.shardID, Shards: o.shards, ReplicateEvery: 2 * time.Second}
	}

	cfg := core.DefaultConfig()
	cfg.Partitions = w.prof.Partitions
	start := time.Now()
	sp := tr.begin("core.new", 0, 0)
	sys := core.New(t1, t2, e1, e2, init, cfg)
	sp.end()
	st.coreNew = time.Since(start)

	var eng engine = sys
	plain := []federation.Source{{Name: w.name[0], Graph: t1}, {Name: w.name[1], Graph: t2}}
	sources := append([]federation.Source(nil), plain...)
	scfg := alexdConfig()
	scfg.DataDir = o.dataDir
	scfg.Stores = stores
	scfg.Fleet = fleetCfg
	if o.flush > 0 {
		scfg.FlushInterval = o.flush
	}
	if tr != nil {
		eng = &tracedEngine{inner: sys, t: tr}
		for i := range sources {
			sources[i].Graph = &tracedStore{TripleStore: sources[i].Graph, t: tr}
		}
		if o.dataDir != "" {
			scfg.FS = &tracedFS{inner: wal.OS{}, t: tr}
		}
	}
	start = time.Now()
	sp = tr.begin("server.new", 0, 0)
	srv, err := server.New(eng, dict, sources, scfg)
	sp.end()
	if err != nil {
		return nil, st, err
	}
	st.serverNew = time.Since(start)

	in, err := listen(srv.Handler())
	if err != nil {
		srv.Abort()
		return nil, st, err
	}
	in.srv, in.sys, in.stores, in.sources = srv, sys, stores, plain
	st.total = time.Since(t0)
	return in, st, nil
}

// alexdConfig is server.Config as cmd/alexd fills it from its flag
// defaults.
func alexdConfig() server.Config {
	return server.Config{
		EpisodeSize:     100,
		QueueSize:       1024,
		FlushInterval:   250 * time.Millisecond,
		QueryTimeout:    10 * time.Second,
		DrainTimeout:    10 * time.Second,
		CheckpointEvery: 16,
		Resilience: federation.Resilience{
			SourceTimeout: 2 * time.Second,
			Retries:       2,
			Breaker:       federation.BreakerConfig{Failures: 5, Cooldown: 5 * time.Second, Successes: 2},
		},
	}
}

// buildStore persists the pair as cmd/alexd's first disk boot does.
func buildStore(w *world, dir string, e1, e2 []rdf.ID, init []links.Link) (*store.Set, error) {
	set, err := store.Create(dir, w.ds.Dict, store.Options{Meta: w.meta})
	if err != nil {
		return nil, err
	}
	for i, g := range []*rdf.Graph{w.ds.G1, w.ds.G2} {
		src, err := set.AddSource(w.name[i])
		if err != nil {
			return nil, err
		}
		g.ForEachMatchIDs(0, 0, 0, false, false, false, func(s, p, o rdf.ID) bool {
			src.InsertIDs(s, p, o)
			return true
		})
	}
	set.SetEntities(w.name[0], e1)
	set.SetEntities(w.name[1], e2)
	set.SetInitialLinks(init)
	if err := set.Compact(); err != nil {
		return nil, err
	}
	return set, nil
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in := &instance{hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { in.served <- in.hs.Serve(ln) }()
	return in, nil
}

// stopHTTP closes the listener and every connection, and waits for the
// serve goroutine.
func (in *instance) stopHTTP() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := in.hs.Shutdown(ctx); err != nil {
		in.hs.Close()
	}
	<-in.served
}

// close shuts an instance down as cmd/alexd does on SIGTERM.
func (in *instance) close() error {
	in.stopHTTP()
	err := in.srv.Close()
	if in.stores != nil {
		if _, cerr := in.stores.Checkpoint(); cerr != nil && err == nil {
			err = cerr
		}
		if cerr := in.stores.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// crash kills the writer without draining (server.Abort) and drops the
// listener; the data dir stays as a crash leaves it. The Close after
// Abort only releases the journal's file handle: the writer is gone,
// so nothing is drained or checkpointed.
func (in *instance) crash() {
	in.stopHTTP()
	in.srv.Abort()
	in.srv.Close()
}

// setupMedian brings an instance up p.setups times, each over a fresh
// data dir, keeps the last one serving and returns the median set-up.
func setupMedian(w *world, p params, o serveOpts, tr *tracer, dataRoot string) (*instance, time.Duration, setupTimes, error) {
	var (
		totals []float64
		in     *instance
		last   setupTimes
	)
	for i := 0; i < p.setups; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, 0, last, err
			}
		}
		if dataRoot != "" {
			o.dataDir = filepath.Join(dataRoot, fmt.Sprintf("setup-%d", i))
			if err := os.RemoveAll(o.dataDir); err != nil {
				return nil, 0, last, err
			}
		}
		var err error
		in, last, err = startShard(w, o, tr)
		if err != nil {
			return nil, 0, last, err
		}
		totals = append(totals, last.total.Seconds())
	}
	return in, time.Duration(median(totals) * float64(time.Second)), last, nil
}
