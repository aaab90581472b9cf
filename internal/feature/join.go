package feature

import (
	"cmp"
	"slices"
	"sync"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/store"
)

// Build constructs the space for the cross product of entities1 (from
// g1) and entities2 (from g2). Both graphs must share one dictionary.
func Build(g1, g2 store.TripleStore, entities1, entities2 []rdf.ID, opts Options) *Space {
	return BuildPartitions(g1, g2, [][]rdf.ID{entities1}, entities2, opts)[0]
}

// BuildPartitions constructs one space per partition of the dataset-1
// entities, each against all of entities2: spaces[i] is the space
// Build(g1, g2, parts[i], entities2, opts) returns. The value-level
// join is computed once and shared by every partition; nothing of it
// outlives the call.
//
// Construction is an exact similarity join over distinct attribute
// values, in three steps:
//
//  1. Number the distinct dataset-2 values and record each occurrence
//     as an (entity, attribute index) pair.
//  2. Score every distinct dataset-1 value against the dataset-2 values
//     the object index (block.go) returns as candidates, and keep the
//     hits scoring ≥ θ. With a custom Sim or θ ≤ 0 the index proves
//     nothing, so every dataset-2 value is a candidate. Either way each
//     distinct value pair is scored at most once.
//  3. Per dataset-1 entity, join its values through the hits and the
//     occurrences into the surviving cells of each entity pair's
//     similarity matrix, and reduce them to the pair's feature set.
//
// Steps 2 and 3 shard their work round-robin across Options.Workers
// goroutines. Every index slice is sorted by the total (score, link)
// order afterwards, so the result is identical for every worker count
// and scheduling.
func BuildPartitions(g1, g2 store.TripleStore, parts [][]rdf.ID, entities2 []rdf.ID, opts Options) []*Space {
	opts.fill()
	d := g1.Dict()
	var sigs *SigTable
	if opts.Sim == nil {
		sigs = NewSigTable(d)
	}

	attrs1 := make([][][]rdf.Attribute, len(parts))
	for pi, ents := range parts {
		attrs1[pi] = make([][]rdf.Attribute, len(ents))
		for k, e := range ents {
			attrs1[pi][k] = g1.Entity(e)
		}
	}
	attrs2 := make([][]rdf.Attribute, len(entities2))
	for k, e := range entities2 {
		attrs2[k] = g2.Entity(e)
	}

	j := newJoin(d.Len(), attrs2)
	j.match(d, sigs, attrs1, opts)
	spaces := make([]*Space, len(parts))
	for pi, ents := range parts {
		spaces[pi] = j.space(ents, entities2, attrs1[pi], attrs2, opts.Workers)
	}
	return spaces
}

// occurrence places a dataset-2 value: entities2[e2]'s attribute attr.
type occurrence struct{ e2, attr int32 }

// hit is a dataset-2 value (by number) scoring ≥ θ against a dataset-1
// value.
type hit struct {
	obj2  int32
	score float64
}

// cell is one surviving entry of an entity pair's similarity matrix:
// row i of the dataset-1 attributes, column j of the dataset-2 ones.
type cell struct {
	i, j  int32
	score float64
}

// join holds the value-level state of one BuildPartitions call.
type join struct {
	objs2 []rdf.ID       // distinct dataset-2 values, by number
	num2  []int32        // rdf.ID → dataset-2 value number + 1, 0 if none
	occ   [][]occurrence // per dataset-2 value number, ascending
	num1  []int32        // rdf.ID → dataset-1 value number + 1
	hits  [][]hit        // per dataset-1 value number
}

// newJoin numbers the distinct values of attrs2 and lists their
// occurrences. dictLen bounds every rdf.ID in play.
func newJoin(dictLen int, attrs2 [][]rdf.Attribute) *join {
	j := &join{num2: make([]int32, dictLen+1)}
	for e2, as := range attrs2 {
		for k, a := range as {
			n := j.num2[a.Obj]
			if n == 0 {
				j.objs2 = append(j.objs2, a.Obj)
				j.occ = append(j.occ, nil)
				n = int32(len(j.objs2))
				j.num2[a.Obj] = n
			}
			j.occ[n-1] = append(j.occ[n-1], occurrence{e2: int32(e2), attr: int32(k)})
		}
	}
	return j
}

// match numbers the distinct dataset-1 values of attrs1 and scores each
// against its candidate dataset-2 values (step 2 of BuildPartitions).
func (j *join) match(d *rdf.Dict, sigs *SigTable, attrs1 [][][]rdf.Attribute, opts Options) {
	j.num1 = make([]int32, len(j.num2))
	var objs1 []rdf.ID
	for _, part := range attrs1 {
		for _, as := range part {
			for _, a := range as {
				if j.num1[a.Obj] == 0 {
					objs1 = append(objs1, a.Obj)
					j.num1[a.Obj] = int32(len(objs1))
				}
			}
		}
	}
	j.hits = make([][]hit, len(objs1))

	var idx *objectIndex
	var terms2 []rdf.Term
	if opts.Sim != nil {
		terms2 = make([]rdf.Term, len(j.objs2))
		for n, o := range j.objs2 {
			terms2[n] = d.Term(o)
		}
	} else if opts.Theta > 0 {
		idx = newObjectIndex(sigs, opts.Theta, j.objs2)
	}

	every := make([]int32, len(j.objs2)) // every dataset-2 value number
	for c := range every {
		every[c] = int32(c)
	}
	workers := clampWorkers(opts.Workers, len(objs1))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var p *probe
			if idx != nil {
				p = idx.newProbe()
			}
			for n := w; n < len(objs1); n += workers {
				o1 := objs1[n]
				cands := every
				if idx != nil {
					if c, ok := idx.candidates(p, o1, j.num2[o1]-1); ok {
						cands = c
					}
				}
				var t1 rdf.Term
				if opts.Sim != nil {
					t1 = d.Term(o1)
				}
				var hs []hit
				for _, c := range cands {
					var s float64
					if opts.Sim != nil {
						s = opts.Sim(t1, terms2[c])
					} else {
						s = sigs.sim(o1, j.objs2[c])
					}
					if s < opts.Theta {
						continue
					}
					hs = append(hs, hit{obj2: c, score: s})
				}
				j.hits[n] = hs
			}
		}(w)
	}
	wg.Wait()
}

// space builds the space of one partition (step 3 of BuildPartitions).
func (j *join) space(ents1, ents2 []rdf.ID, attrs1, attrs2 [][]rdf.Attribute, workers int) *Space {
	workers = clampWorkers(workers, len(ents1))
	type shard struct {
		links []links.Link
		sets  []Set
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var (
				res     shard
				cells   = make([][]cell, len(ents2)) // per entities2 index
				touched []int32
				scratch Set
			)
			for k := w; k < len(ents1); k += workers {
				a1 := attrs1[k]
				for i, a := range a1 {
					for _, h := range j.hits[j.num1[a.Obj]-1] {
						for _, oc := range j.occ[h.obj2] {
							if len(cells[oc.e2]) == 0 {
								touched = append(touched, oc.e2)
							}
							cells[oc.e2] = append(cells[oc.e2], cell{i: int32(i), j: oc.attr, score: h.score})
						}
					}
				}
				for _, e2 := range touched {
					scratch = reduceCells(scratch[:0], cells[e2], a1, attrs2[e2])
					res.links = append(res.links, links.Link{E1: ents1[k], E2: ents2[e2]})
					res.sets = append(res.sets, slices.Clone(scratch))
					cells[e2] = cells[e2][:0]
				}
				touched = touched[:0]
			}
			shards[w] = res
		}(w)
	}
	wg.Wait()

	// Merge. Shards hold disjoint links (entities1 is partitioned), and
	// the per-key sort below is a total order, so concatenation order is
	// immaterial. Index slices are sized exactly: the space lives as
	// long as the system does.
	total := 0
	perKey := make(map[Key]int)
	for _, res := range shards {
		total += len(res.links)
		for _, set := range res.sets {
			for _, f := range set {
				perKey[f.Key]++
			}
		}
	}
	sp := &Space{
		sets:       make(map[links.Link]Set, total),
		index:      make(map[Key][]scoredPair, len(perKey)),
		TotalPairs: len(ents1) * len(ents2),
	}
	for k, c := range perKey {
		sp.index[k] = make([]scoredPair, 0, c)
	}
	for _, res := range shards {
		for i, l := range res.links {
			set := res.sets[i]
			sp.sets[l] = set
			for _, f := range set {
				sp.index[f.Key] = append(sp.index[f.Key], scoredPair{score: f.Score, link: l})
			}
		}
	}
	for k := range sp.index {
		sortPairs(sp.index[k])
	}
	return sp
}

// reduceCells reduces an entity pair's surviving cells to its state
// feature set, appended to dst (§4.1): the maximum per row (dataset-1
// predicate) if the first entity has more attributes than the second,
// otherwise the maximum per column (dataset-2 predicate). Cells are
// taken in row-major matrix order and a later cell replaces an earlier
// one only with a strictly higher score, so among equal scores the
// first cell wins. The set is ordered by (P1, P2).
func reduceCells(dst Set, cells []cell, a1, a2 []rdf.Attribute) Set {
	slices.SortFunc(cells, func(x, y cell) int {
		if x.i != y.i {
			return cmp.Compare(x.i, y.i)
		}
		return cmp.Compare(x.j, y.j)
	})
	groupByRow := len(a1) > len(a2)
	for _, c := range cells {
		f := Feature{Key: Key{P1: a1[c.i].Pred, P2: a2[c.j].Pred}, Score: c.score}
		found := false
		for g := range dst {
			if groupByRow && dst[g].Key.P1 == f.Key.P1 || !groupByRow && dst[g].Key.P2 == f.Key.P2 {
				if f.Score > dst[g].Score {
					dst[g] = f
				}
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, f)
		}
	}
	slices.SortFunc(dst, func(x, y Feature) int {
		if x.Key.P1 != y.Key.P1 {
			return cmp.Compare(x.Key.P1, y.Key.P1)
		}
		return cmp.Compare(x.Key.P2, y.Key.P2)
	})
	return dst
}

// clampWorkers bounds a worker count to [1, n].
func clampWorkers(workers, n int) int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}
