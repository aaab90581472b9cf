package feature

import (
	"math"

	"alex/internal/rdf"
)

// Object-level blocking for the similarity join (Build): an inverted
// index from blocking keys of the distinct dataset-2 attribute values
// to those values. A distinct dataset-1 value is scored only against
// the values it shares a key with, instead of against every one.
//
// Correctness rests on a θ-unreachability argument against the built-in
// similarity (SigTable.sim): for θ > 0 a value pair is kept only if it
// scores ≥ θ, and every way to score ≥ θ implies a shared key:
//
//   - identical object IDs score 1 → found directly through the dense
//     object numbering of the join, without a key;
//   - dates score ≥ θ only if |Δ| ≤ 365(1−θ) days → values are bucketed
//     by a width w at least that large, and a probe for v visits every
//     bucket from that of v−w to that of v+w (bucketOf is monotone, and
//     rounding v±w to a float cannot cross a representable value);
//   - numbers score ≥ θ only if |Δ| ≤ 10(1−θ) → same construction. A
//     NaN or infinite number scores NaN against some numbers, which the
//     θ-filter keeps, so such values are indexed under a wildcard key
//     every number probe visits, and probe every value themselves;
//   - strings/IRIs score ≥ θ only if trigram Jaccard ≥ θ, token
//     Jaccard ≥ θ, or the normal forms are equal and non-empty (which
//     implies trigram Jaccard = 1). For Jaccard ≥ θ the prefix
//     filtering principle applies (Chaudhuri et al., PPJoin): the
//     overlap must be at least α = max(⌈θ|A|⌉, ⌈θ|B|⌉), and two sets
//     with overlap ≥ α must share an element within the first
//     |X|−α+1 ≤ |X|−⌈θ|X|⌉+1 elements of any shared total order. So
//     indexing and probing only the sorted hash prefix of length
//     |X|−⌈θ|X|⌉+1 never drops a qualifying pair, while keeping the
//     long tails of common values out of the posting lists. A string
//     and an IRI always score 0, so their keys carry different tags.
//
// Key collisions (hash collisions, bucket aliasing after clamping) only
// ever admit extra candidates, which the θ-filter then scores and
// discards — they can never drop a pair. The join is therefore exact;
// the oracle tests (join_test.go) check it against scoring the full
// cross product.
const (
	blockKeyMask uint64 = 1<<60 - 1
	blockTagText uint64 = 1 << 60
	blockTagNum  uint64 = 2 << 60
	blockTagDate uint64 = 3 << 60
	blockTagIRI  uint64 = 4 << 60
	blockKeyWild uint64 = 5 << 60 // non-finite numbers
)

// blockWidth returns a bucket width within which a proximity score over
// a window of size w can still reach θ: |Δ| ≤ w(1−θ). The relative
// margin absorbs the rounding of the score computation (a wider bucket
// only admits extra candidates); the floor keeps the width positive for
// θ ≥ 1, where only exact value matches qualify.
func blockWidth(w, theta float64) float64 {
	f := 1 - theta
	if f < 0.01 {
		f = 0.01
	}
	return w * f * (1 + 1e-9)
}

// bucketOf returns the blocking bucket of a numeric/date magnitude.
// Clamping keeps the float→int conversion defined; it is monotone, so
// the probe range of a value still covers every qualifying bucket.
func bucketOf(num, width float64) int64 {
	b := math.Floor(num / width)
	if b > 1e15 {
		b = 1e15
	}
	if b < -1e15 {
		b = -1e15
	}
	return int64(b)
}

// prefixLen returns the length of the sorted-set prefix that must be
// indexed/probed for Jaccard ≥ theta: n − ⌈θn⌉ + 1, clamped to [0, n].
// The required overlap ⌈θn⌉ is taken with a small downward tolerance,
// so a product θn rounded just above an integer lengthens the prefix
// instead of shortening it.
func prefixLen(n int, theta float64) int {
	if n == 0 {
		return 0
	}
	p := n - int(math.Ceil(theta*float64(n)-1e-9)) + 1
	if p < 0 {
		return 0
	}
	if p > n {
		return n
	}
	return p
}

// objectIndex is the read-only inverted index over the distinct
// dataset-2 values of one join, shared by all of its workers.
type objectIndex struct {
	sigs     *SigTable
	theta    float64
	numWidth float64
	dayWidth float64
	n        int                // number of dataset-2 values
	post     map[uint64][]int32 // blocking key → ascending value numbers
}

func newObjectIndex(sigs *SigTable, theta float64, objs2 []rdf.ID) *objectIndex {
	x := &objectIndex{
		sigs:     sigs,
		theta:    theta,
		numWidth: blockWidth(10, theta),
		dayWidth: blockWidth(365, theta),
		n:        len(objs2),
		post:     make(map[uint64][]int32),
	}
	var keys []uint64
	for n, o := range objs2 {
		keys, _ = x.appendKeys(keys[:0], o, false)
		for _, k := range keys {
			// A value's keys can repeat (a token hash equal to a
			// trigram hash); postings stay duplicate-free.
			if ps := x.post[k]; len(ps) == 0 || ps[len(ps)-1] != int32(n) {
				x.post[k] = append(ps, int32(n))
			}
		}
	}
	return x
}

// appendKeys appends the blocking keys of value o: the keys it is
// indexed under, or with probe set the keys it must look up. all
// reports a probe that must visit every value instead.
func (x *objectIndex) appendKeys(keys []uint64, o rdf.ID, probe bool) (_ []uint64, all bool) {
	s := x.sigs.sig(o)
	switch s.kind {
	case sigNumber, sigDate:
		tag, w := blockTagNum, x.numWidth
		if s.kind == sigDate {
			tag, w = blockTagDate, x.dayWidth
		}
		if math.IsNaN(s.num) || math.IsInf(s.num, 0) {
			return append(keys, blockKeyWild), probe
		}
		lo, hi := bucketOf(s.num, w), bucketOf(s.num, w)
		if probe {
			lo, hi = bucketOf(s.num-w, w), bucketOf(s.num+w, w)
			if s.kind == sigNumber {
				keys = append(keys, blockKeyWild)
			}
		}
		for b := lo; b <= hi; b++ {
			keys = append(keys, tag|(uint64(b)&blockKeyMask))
		}
		return keys, false
	}
	tag := blockTagText
	if s.kind == sigIRI {
		tag = blockTagIRI
	}
	for _, h := range s.tri[:prefixLen(len(s.tri), x.theta)] {
		keys = append(keys, tag|uint64(h))
	}
	for _, h := range s.tok[:prefixLen(len(s.tok), x.theta)] {
		keys = append(keys, tag|uint64(h))
	}
	return keys, false
}

// probe is one worker's scratch space for candidate lookups; the index
// itself is shared and read-only.
type probe struct {
	seen  []int32 // value number → stamp of the last lookup returning it
	stamp int32
	keys  []uint64
	out   []int32
}

func (x *objectIndex) newProbe() *probe { return &probe{seen: make([]int32, x.n)} }

// candidates returns the numbers of the dataset-2 values that may score
// ≥ θ against o, each once: self, the number of o's identical value
// (−1 if none), and every value sharing a blocking key with o. ok is
// false when o must be scored against every value instead.
func (x *objectIndex) candidates(p *probe, o rdf.ID, self int32) (_ []int32, ok bool) {
	var all bool
	if p.keys, all = x.appendKeys(p.keys[:0], o, true); all {
		return nil, false
	}
	p.stamp++
	p.out = p.out[:0]
	if self >= 0 {
		p.seen[self] = p.stamp
		p.out = append(p.out, self)
	}
	for _, k := range p.keys {
		for _, c := range x.post[k] {
			if p.seen[c] != p.stamp {
				p.seen[c] = p.stamp
				p.out = append(p.out, c)
			}
		}
	}
	return p.out, true
}
