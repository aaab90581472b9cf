// Package core implements ALEX itself: the feedback-driven link
// exploration system of the paper. Starting from a set of candidate
// links produced by any automatic linking algorithm, ALEX interprets
// user feedback on query answers as feedback on the links behind them.
// Positive feedback triggers exploration — a reinforcement-learned
// choice of one feature of the approved link, and the admission of all
// links whose score on that feature lies within ±step of the approved
// link's — and negative feedback removes links, feeding the blacklist
// and rollback optimizations (§6.3).
package core

import (
	"alex/internal/rdf"
)

// Config holds every tunable of the system, with defaults matching the
// paper's experimental setup (§7.1 "Default Settings").
type Config struct {
	// StepSize is the exploration offset around a feature score
	// (paper default 0.05).
	StepSize float64
	// Theta is the feature-filtering threshold (paper default 0.3,
	// §6.1). Zero is an explicit θ=0 — every feature is kept, which
	// makes spaces enormous; use DefaultConfig for the paper value.
	Theta float64
	// Epsilon is the ε of the ε-greedy policy.
	Epsilon float64
	// EpsilonDecay, when in (0, 1), multiplies ε after every policy
	// improvement, annealing exploration as the value estimates mature
	// — an extension beyond the paper (which keeps ε fixed) that trades
	// late-run discovery for faster strict convergence. 0 disables.
	EpsilonDecay float64
	// EpsilonMin floors the decayed ε so exploration never fully stops,
	// preserving the π(s,a) > 0 requirement of §4.4.1 (default 0.01
	// when decay is enabled).
	EpsilonMin float64
	// EpisodeSize is the number of feedback items per episode (paper
	// default 1000 in batch mode, 10 for specific domains).
	EpisodeSize int
	// MaxEpisodes bounds the policy evaluation/improvement iterations
	// (the paper caps at 100).
	MaxEpisodes int
	// RelaxedDelta is the fraction of changed links below which the
	// relaxed convergence rule fires (paper: 5%).
	RelaxedDelta float64
	// ConvergenceEpisodes is the number of consecutive episodes with no
	// change in the candidate set required for strict convergence
	// (default 2). With small episode sizes a single unchanged episode
	// can be a sampling accident rather than a fixpoint.
	ConvergenceEpisodes int
	// UseBlacklist enables the blacklist optimization (§6.3).
	UseBlacklist bool
	// BlacklistMargin is how many net negative votes (negatives minus
	// positives) a link needs before it is blacklisted. 1 reproduces
	// §6.3 literally: the first rejection of a never-approved link
	// blacklists it. 2 (the default) tolerates one erroneous rejection,
	// which is what keeps recall robust under incorrect feedback
	// (Appendix C): a correct link whose very first judgment is a user
	// error is merely removed and can be rediscovered, instead of being
	// barred forever.
	BlacklistMargin int
	// UseRollback enables the rollback optimization (§6.3).
	UseRollback bool
	// RollbackThreshold is the number of negative feedback items on
	// links generated by one state-action pair that triggers rollback.
	RollbackThreshold int
	// PositiveReward and NegativePenalty are the reward magnitudes for
	// approved and rejected links (§4.3 allows penalizing errors more).
	PositiveReward  float64
	NegativePenalty float64
	// Partitions is the number of equal-size partitions of dataset 1
	// (§6.2). Partitions are explored independently.
	Partitions int
	// SpaceWorkers is the number of goroutines used to build each
	// partition's feature space (0 = runtime.GOMAXPROCS(0)). The
	// constructed spaces are identical for every worker count.
	SpaceWorkers int
	// QueryWorkers is the per-query parallelism of the federated read
	// path (0 = runtime.GOMAXPROCS(0)). It tunes speed only: answers,
	// provenance and degradation markers are identical for every worker
	// count (see federation.Options).
	QueryWorkers int
	// QueryReplanEvery enables adaptive query execution on the
	// federated read path: re-rank the remaining join patterns from
	// observed cardinalities every N executed stages (0 = static
	// plans). Like QueryWorkers it tunes speed only — answers,
	// provenance and degradation markers are identical (see
	// federation.Options.ReplanEvery).
	QueryReplanEvery int
	// Seed drives all randomness in the system.
	Seed int64
	// Sim overrides the space similarity function (nil = fast SpaceSim).
	Sim func(a, b rdf.Term) float64
	// UniformPolicy disables learning: actions are drawn uniformly at
	// random regardless of collected rewards. This is the ablation
	// baseline showing the value of the RL component.
	UniformPolicy bool
}

// DefaultConfig returns the paper's default settings.
func DefaultConfig() Config {
	return Config{
		StepSize:            0.05,
		Theta:               0.3,
		Epsilon:             0.1,
		EpisodeSize:         1000,
		MaxEpisodes:         100,
		RelaxedDelta:        0.05,
		ConvergenceEpisodes: 2,
		UseBlacklist:        true,
		BlacklistMargin:     2,
		UseRollback:         true,
		RollbackThreshold:   3,
		PositiveReward:      1,
		NegativePenalty:     1,
		Partitions:          1,
		Seed:                1,
	}
}
