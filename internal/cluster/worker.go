// Package cluster runs ALEX's equal-size partitions on multiple
// machines (paper §6.2: "the different partitions can be independently
// explored in parallel, either on different CPU cores of the same
// machine or on multiple machines in a distributed setting").
//
// A Worker owns one shard of the dataset-1 entities crossed with all of
// dataset 2 — a share-nothing ALEX instance. The Coordinator partitions
// the entities round-robin across workers, routes each feedback item to
// the owning worker, and aggregates candidates and episode statistics.
//
// Entities cross the wire as IRI strings, never as dictionary IDs:
// every node interns terms into its own dictionary, exactly as separate
// machines would.
package cluster

import (
	"fmt"
	"net"
	"net/rpc"
	"strings"
	"sync"

	"alex/internal/core"
	"alex/internal/links"
	"alex/internal/rdf"
)

// ConfigWire is the gob-encodable subset of core.Config (the Sim
// function hook cannot cross the wire; workers use the default).
type ConfigWire struct {
	StepSize          float64
	Theta             float64
	Epsilon           float64
	MaxEpisodes       int
	UseBlacklist      bool
	BlacklistMargin   int
	UseRollback       bool
	RollbackThreshold int
	PositiveReward    float64
	NegativePenalty   float64
	Seed              int64
	UniformPolicy     bool
	SpaceWorkers      int
}

// FromConfig converts a core.Config for the wire.
func FromConfig(c core.Config) ConfigWire {
	return ConfigWire{
		StepSize: c.StepSize, Theta: c.Theta, Epsilon: c.Epsilon,
		MaxEpisodes: c.MaxEpisodes, UseBlacklist: c.UseBlacklist,
		BlacklistMargin: c.BlacklistMargin, UseRollback: c.UseRollback,
		RollbackThreshold: c.RollbackThreshold, PositiveReward: c.PositiveReward,
		NegativePenalty: c.NegativePenalty, Seed: c.Seed, UniformPolicy: c.UniformPolicy,
		SpaceWorkers: c.SpaceWorkers,
	}
}

func (w ConfigWire) toConfig() core.Config {
	c := core.DefaultConfig()
	c.StepSize = w.StepSize
	c.Theta = w.Theta
	c.Epsilon = w.Epsilon
	c.MaxEpisodes = w.MaxEpisodes
	c.UseBlacklist = w.UseBlacklist
	c.BlacklistMargin = w.BlacklistMargin
	c.UseRollback = w.UseRollback
	c.RollbackThreshold = w.RollbackThreshold
	c.PositiveReward = w.PositiveReward
	c.NegativePenalty = w.NegativePenalty
	c.Seed = w.Seed
	c.UniformPolicy = w.UniformPolicy
	c.SpaceWorkers = w.SpaceWorkers
	c.Partitions = 1  // a worker is exactly one partition
	c.EpisodeSize = 1 // episodes are driven item-by-item by the coordinator
	return c
}

// AssignArgs ships a worker its shard.
type AssignArgs struct {
	// Dataset1NT and Dataset2NT are the datasets in N-Triples form.
	Dataset1NT string
	Dataset2NT string
	// Entities1 is this worker's shard of dataset-1 entity IRIs;
	// Entities2 is all of dataset 2.
	Entities1 []string
	Entities2 []string
	// Initial holds the initial candidate links as [entity1, entity2]
	// IRI pairs belonging to this shard.
	Initial [][2]string
	Config  ConfigWire
}

// AssignReply reports the constructed shard.
type AssignReply struct {
	Candidates    int
	SpaceFiltered int
	SpaceTotal    int
}

// LinkWire is a link as IRI strings. It crosses both the RPC wire
// (gob, which ignores the tags) and the fleet replication wire (JSON,
// see SnapshotManifest).
type LinkWire struct {
	E1 string `json:"e1"`
	E2 string `json:"e2"`
}

// SampleReply is a sampled candidate (OK=false when the shard is empty).
type SampleReply struct {
	Link LinkWire
	OK   bool
}

// FeedbackArgs carries one feedback item.
type FeedbackArgs struct {
	Link     LinkWire
	Positive bool
}

// EpisodeReply reports a worker's episode statistics.
type EpisodeReply struct {
	Explored  int
	Removed   int
	Rollbacks int
}

// CandidatesReply lists a shard's candidate links.
type CandidatesReply struct {
	Links []LinkWire
}

// Empty is the empty RPC argument/reply.
type Empty struct{}

// Worker serves one ALEX shard over RPC.
type Worker struct {
	mu   sync.Mutex
	dict *rdf.Dict
	sys  *core.System
}

// NewWorker returns an unassigned worker.
func NewWorker() *Worker { return &Worker{} }

// Assign builds the worker's shard: parse the datasets, resolve the
// entity IRIs, build the feature space, seed the candidates.
func (w *Worker) Assign(args AssignArgs, reply *AssignReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()

	dict := rdf.NewDict()
	g1 := rdf.NewGraphWithDict(dict)
	g2 := rdf.NewGraphWithDict(dict)
	if _, err := rdf.ReadNTriples(strings.NewReader(args.Dataset1NT), g1); err != nil {
		return fmt.Errorf("cluster: dataset 1: %w", err)
	}
	if _, err := rdf.ReadNTriples(strings.NewReader(args.Dataset2NT), g2); err != nil {
		return fmt.Errorf("cluster: dataset 2: %w", err)
	}
	e1, err := resolveIRIs(dict, args.Entities1)
	if err != nil {
		return err
	}
	e2, err := resolveIRIs(dict, args.Entities2)
	if err != nil {
		return err
	}
	initial := make([]links.Link, 0, len(args.Initial))
	for _, pair := range args.Initial {
		l, err := resolveLink(dict, LinkWire{E1: pair[0], E2: pair[1]})
		if err != nil {
			return err
		}
		initial = append(initial, l)
	}

	w.dict = dict
	w.sys = core.New(g1, g2, e1, e2, initial, args.Config.toConfig())
	reply.Candidates = w.sys.CandidateCount()
	reply.SpaceFiltered, reply.SpaceTotal = w.sys.SpaceSize()
	return nil
}

func resolveIRIs(dict *rdf.Dict, iris []string) ([]rdf.ID, error) {
	out := make([]rdf.ID, 0, len(iris))
	for _, iri := range iris {
		id, ok := dict.Lookup(rdf.IRI(iri))
		if !ok {
			return nil, fmt.Errorf("cluster: entity %q not present in shard data", iri)
		}
		out = append(out, id)
	}
	return out, nil
}

func resolveLink(dict *rdf.Dict, lw LinkWire) (links.Link, error) {
	e1, ok := dict.Lookup(rdf.IRI(lw.E1))
	if !ok {
		return links.Link{}, fmt.Errorf("cluster: unknown entity %q", lw.E1)
	}
	e2, ok := dict.Lookup(rdf.IRI(lw.E2))
	if !ok {
		return links.Link{}, fmt.Errorf("cluster: unknown entity %q", lw.E2)
	}
	return links.Link{E1: e1, E2: e2}, nil
}

func (w *Worker) wire(l links.Link) LinkWire {
	return LinkWire{E1: w.dict.Term(l.E1).Value, E2: w.dict.Term(l.E2).Value}
}

func (w *Worker) assigned() error {
	if w.sys == nil {
		return fmt.Errorf("cluster: worker not assigned")
	}
	return nil
}

// BeginEpisode starts an episode on the shard.
func (w *Worker) BeginEpisode(_ Empty, _ *Empty) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.assigned(); err != nil {
		return err
	}
	w.sys.BeginEpisode()
	return nil
}

// CandidateCount reports |C| of the shard.
func (w *Worker) CandidateCount(_ Empty, reply *int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.assigned(); err != nil {
		return err
	}
	*reply = w.sys.CandidateCount()
	return nil
}

// Sample draws a uniformly random candidate of the shard.
func (w *Worker) Sample(_ Empty, reply *SampleReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.assigned(); err != nil {
		return err
	}
	l, ok := w.sys.SampleCandidate()
	if !ok {
		reply.OK = false
		return nil
	}
	reply.Link = w.wire(l)
	reply.OK = true
	return nil
}

// Feedback applies one feedback item to the shard.
func (w *Worker) Feedback(args FeedbackArgs, _ *Empty) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.assigned(); err != nil {
		return err
	}
	l, err := resolveLink(w.dict, args.Link)
	if err != nil {
		return err
	}
	w.sys.Feedback(l, args.Positive)
	return nil
}

// FinishEpisode improves the shard's policy and reports statistics.
func (w *Worker) FinishEpisode(_ Empty, reply *EpisodeReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.assigned(); err != nil {
		return err
	}
	st := w.sys.FinishEpisode()
	reply.Explored = st.Explored
	reply.Removed = st.Removed
	reply.Rollbacks = st.Rollbacks
	return nil
}

// Candidates lists the shard's candidate links.
func (w *Worker) Candidates(_ Empty, reply *CandidatesReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.assigned(); err != nil {
		return err
	}
	for _, l := range w.sys.Candidates().Slice() {
		reply.Links = append(reply.Links, w.wire(l))
	}
	return nil
}

// Serve accepts RPC connections on l and serves a single Worker until
// the listener is closed. Every connection goroutine is drained before
// Serve returns, so closing the listener is a complete shutdown. It is
// the main loop of cmd/alexworker.
func Serve(l net.Listener) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", NewWorker()); err != nil {
		return err
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.ServeConn(conn)
		}()
	}
}
