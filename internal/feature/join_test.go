package feature

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"alex/internal/links"
	"alex/internal/rdf"
	"alex/internal/similarity"
	"alex/internal/store"
	"alex/internal/synth"
)

// testScale keeps the exhaustive per-profile oracle tests fast enough
// to run under -race: the largest profile (dbpedia-opencyc, 2400×1500)
// shrinks to 120×75.
const testScale = 0.05

// oracleThetas are the thresholds every oracle comparison covers: θ ≤ 0
// (the index proves nothing), low and default θ, and high θ up to exact
// matches only.
var oracleThetas = []float64{0, 0.1, DefaultTheta, 0.6, 0.9, 1}

// pairwiseBuild is the reference builder: it scores every attribute
// pair of every entity pair, serially, with the similarity Build uses
// (the signature table, or custom over the dictionary's terms). It is
// the definition of the space that Build's object-level join must
// reproduce exactly.
func pairwiseBuild(g1, g2 store.TripleStore, entities1, entities2 []rdf.ID, theta float64, custom func(a, b rdf.Term) float64) *Space {
	d := g1.Dict()
	sim := NewSigTable(d).sim
	if custom != nil {
		sim = func(o1, o2 rdf.ID) float64 { return custom(d.Term(o1), d.Term(o2)) }
	}
	sp := &Space{
		sets:       make(map[links.Link]Set),
		index:      make(map[Key][]scoredPair),
		TotalPairs: len(entities1) * len(entities2),
	}
	attrs2 := make([][]rdf.Attribute, len(entities2))
	for i, e2 := range entities2 {
		attrs2[i] = g2.Entity(e2)
	}
	for _, e1 := range entities1 {
		a1 := g1.Entity(e1)
		for i, e2 := range entities2 {
			set := pairwiseSet(a1, attrs2[i], theta, sim)
			if len(set) == 0 {
				continue
			}
			l := links.Link{E1: e1, E2: e2}
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

// pairwiseSet computes the full similarity matrix between the two
// attribute lists, discards entries below θ, and reduces to the state
// feature set by keeping the first maximum per row if the first entity
// has more attributes than the second, otherwise per column (§4.1).
func pairwiseSet(a1, a2 []rdf.Attribute, theta float64, sim func(o1, o2 rdf.ID) float64) Set {
	type cell struct {
		key   Key
		score float64
	}
	var cells []cell
	for _, x := range a1 {
		for _, y := range a2 {
			s := sim(x.Obj, y.Obj)
			if s < theta {
				continue
			}
			cells = append(cells, cell{key: Key{P1: x.Pred, P2: y.Pred}, score: s})
		}
	}
	if len(cells) == 0 {
		return nil
	}
	groupByRow := len(a1) > len(a2)
	best := make(map[rdf.ID]cell)
	for _, c := range cells {
		g := c.key.P1
		if !groupByRow {
			g = c.key.P2
		}
		if cur, ok := best[g]; !ok || c.score > cur.score {
			best[g] = c
		}
	}
	set := make(Set, 0, len(best))
	for _, c := range best {
		set = append(set, Feature{Key: c.key, Score: c.score})
	}
	sort.Slice(set, func(i, j int) bool {
		if set[i].Key.P1 != set[j].Key.P1 {
			return set[i].Key.P1 < set[j].Key.P1
		}
		return set[i].Key.P2 < set[j].Key.P2
	})
	return set
}

// sameScore compares scores bit for bit, so that a NaN score matches
// itself.
func sameScore(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameSpace asserts two spaces are identical in every observable and
// internal respect: the unfiltered size, the per-link feature sets, and
// the per-feature sorted index (order included — FindInRange answer
// order must not depend on how the space was built). It names the first
// difference it finds.
func sameSpace(t *testing.T, label string, got, want *Space) {
	t.Helper()
	if got.TotalPairs != want.TotalPairs {
		t.Fatalf("%s: TotalPairs = %d, want %d", label, got.TotalPairs, want.TotalPairs)
	}
	for l, ws := range want.sets {
		gs, ok := got.sets[l]
		if !ok {
			t.Fatalf("%s: link %v missing (want set %v)", label, l, ws)
		}
		if len(gs) != len(ws) {
			t.Fatalf("%s: link %v set = %v, want %v", label, l, gs, ws)
		}
		for i := range ws {
			if gs[i].Key != ws[i].Key || !sameScore(gs[i].Score, ws[i].Score) {
				t.Fatalf("%s: link %v set = %v, want %v", label, l, gs, ws)
			}
		}
	}
	if len(got.sets) != len(want.sets) {
		t.Fatalf("%s: %d links, want %d", label, len(got.sets), len(want.sets))
	}
	if len(got.index) != len(want.index) {
		t.Fatalf("%s: index has %d keys, want %d", label, len(got.index), len(want.index))
	}
	for k, wps := range want.index {
		gps := got.index[k]
		if len(gps) != len(wps) {
			t.Fatalf("%s: index[%v] has %d entries, want %d", label, k, len(gps), len(wps))
		}
		for i := range wps {
			if gps[i].link != wps[i].link || !sameScore(gps[i].score, wps[i].score) {
				t.Fatalf("%s: index[%v][%d] = %v, want %v", label, k, i, gps[i], wps[i])
			}
		}
	}
}

// TestBlockedMatchesUnblocked is the oracle test of the object-level
// join: on every synth profile, every oracle θ and several worker
// counts, the space Build assembles from blocked value candidates is
// identical to the unblocked pairwise reference.
func TestBlockedMatchesUnblocked(t *testing.T) {
	for _, prof := range synth.Profiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			ds := synth.Generate(prof.Scale(testScale))
			for _, theta := range oracleThetas {
				want := pairwiseBuild(ds.G1, ds.G2, ds.Entities1, ds.Entities2, theta, nil)
				if theta == DefaultTheta && want.Len() == 0 {
					t.Fatal("space is empty; test proves nothing")
				}
				for _, workers := range []int{1, 2, 8} {
					got := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, Options{Theta: theta, Workers: workers})
					sameSpace(t, fmt.Sprintf("θ=%g workers=%d", theta, workers), got, want)
				}
			}
		})
	}
}

// TestPartitionsMatchPairwise builds partition spaces the way core.New
// does — one BuildPartitions call over round-robin partitions sharing
// the join — and checks each against the reference for that partition.
func TestPartitionsMatchPairwise(t *testing.T) {
	for _, name := range []string{"dbpedia-nytimes", "skewed-hub"} {
		prof, _ := synth.ProfileByName(name)
		ds := synth.Generate(prof.Scale(testScale))
		parts := PartitionRoundRobin(ds.Entities1, 9)
		for _, theta := range []float64{0, DefaultTheta} {
			spaces := BuildPartitions(ds.G1, ds.G2, parts, ds.Entities2, Options{Theta: theta, Workers: 2})
			if len(spaces) != len(parts) {
				t.Fatalf("%s: %d spaces for %d partitions", name, len(spaces), len(parts))
			}
			for pi, part := range parts {
				want := pairwiseBuild(ds.G1, ds.G2, part, ds.Entities2, theta, nil)
				sameSpace(t, fmt.Sprintf("%s θ=%g partition %d", name, theta, pi), spaces[pi], want)
			}
		}
	}
}

// TestBuildDeterministic is the regression test for the historical
// nondeterministic tie ordering in Space.index: building the same space
// twice must produce byte-identical indexes, map iteration order
// notwithstanding.
func TestBuildDeterministic(t *testing.T) {
	prof, _ := synth.ProfileByName("dbpedia-nytimes")
	ds := synth.Generate(prof.Scale(testScale))
	opts := Options{Theta: DefaultTheta, Workers: 4}
	a := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, opts)
	b := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, opts)
	if a.Len() == 0 {
		t.Fatal("space is empty; test proves nothing")
	}
	sameSpace(t, "second build", b, a)
}

// TestParallelMatchesSerial checks the determinism claim on every synth
// profile: a Workers:8 build is identical to Workers:1.
func TestParallelMatchesSerial(t *testing.T) {
	for _, prof := range synth.Profiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			ds := synth.Generate(prof.Scale(testScale))
			serial := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, Options{Theta: DefaultTheta, Workers: 1})
			parallel := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, Options{Theta: DefaultTheta, Workers: 8})
			if serial.Len() == 0 {
				t.Fatal("space is empty; test proves nothing")
			}
			sameSpace(t, "workers=8", parallel, serial)
		})
	}
}

// TestThetaSentinel pins the Options.Theta contract: negative means
// "unset" (DefaultTheta applies), zero is an honest θ=0 that keeps
// zero-score features instead of silently becoming 0.3.
func TestThetaSentinel(t *testing.T) {
	prof, _ := synth.ProfileByName("dbpedia-lexvo")
	ds := synth.Generate(prof.Scale(testScale))
	build := func(theta float64) *Space {
		return Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, Options{Theta: theta, Workers: 2})
	}
	sameSpace(t, "Theta:-1 vs DefaultTheta", build(-1), build(DefaultTheta))
	zero := build(0)
	if zero.Len() <= build(DefaultTheta).Len() {
		t.Fatalf("explicit θ=0 filtered the space like the default did (len %d)", zero.Len())
	}
	// θ=0 keeps every pair where both sides have attributes.
	for l, set := range zero.sets {
		for _, f := range set {
			if f.Score < 0 {
				t.Fatalf("link %v feature %v has negative score %g", l, f.Key, f.Score)
			}
		}
	}
}

// TestCustomSimParallel checks a user-supplied Sim against the
// reference at every worker count. The Sim is deliberately asymmetric,
// so swapped arguments would show.
func TestCustomSimParallel(t *testing.T) {
	prof, _ := synth.ProfileByName("dbpedia-dogfood")
	ds := synth.Generate(prof.Scale(testScale))
	sim := func(a, b rdf.Term) float64 {
		s := similarity.SpaceSim(a, b)
		if len(a.Value) > len(b.Value) {
			s *= 0.9
		}
		return s
	}
	for _, theta := range []float64{0, DefaultTheta, 0.9} {
		want := pairwiseBuild(ds.G1, ds.G2, ds.Entities1, ds.Entities2, theta, sim)
		if want.Len() == 0 {
			t.Fatalf("θ=%g: space is empty; test proves nothing", theta)
		}
		for _, workers := range []int{1, 2, 8} {
			got := Build(ds.G1, ds.G2, ds.Entities1, ds.Entities2, Options{Theta: theta, Workers: workers, Sim: sim})
			sameSpace(t, fmt.Sprintf("custom sim θ=%g workers=%d", theta, workers), got, want)
		}
	}
}

// fixture is a hand-built dataset pair holding the join's edge cases.
type fixture struct {
	d                *rdf.Dict
	g1, g2           *rdf.Graph
	e1, e2           []rdf.ID
	insert1, insert2 func(s, p string, o rdf.Term)
}

func newFixture() *fixture {
	f := &fixture{d: rdf.NewDict()}
	f.g1 = rdf.NewGraphWithDict(f.d)
	f.g2 = rdf.NewGraphWithDict(f.d)
	f.insert1 = func(s, p string, o rdf.Term) {
		f.g1.Insert(rdf.Triple{S: rdf.IRI("http://ds1/" + s), P: rdf.IRI("http://ds1/" + p), O: o})
	}
	f.insert2 = func(s, p string, o rdf.Term) {
		f.g2.Insert(rdf.Triple{S: rdf.IRI("http://ds2/" + s), P: rdf.IRI("http://ds2/" + p), O: o})
	}
	return f
}

func (f *fixture) entities() {
	f.e1, f.e2 = f.g1.SubjectIDs(), f.g2.SubjectIDs()
}

// TestBuildFixture checks the join against the reference on the value
// shapes its exactness argument names, and pins the expected features.
func TestBuildFixture(t *testing.T) {
	f := newFixture()
	// Predicates are interned in this order, so their IDs ascend with it.
	for _, p := range []string{"a", "b", "c", "d", "e", "f"} {
		f.d.Intern(rdf.IRI("http://ds1/" + p))
	}
	for _, p := range []string{"q", "r", "s", "t", "u", "v"} {
		f.d.Intern(rdf.IRI("http://ds2/" + p))
	}
	// The value "abc dex" is numbered before "abc deg" (R0 comes first),
	// so the tie below reaches the join's cells out of matrix order.
	f.insert2("R0", "v", rdf.Literal("abc dex"))

	// A: one value under two dataset-2 predicates; a shared IRI whose
	// local name normalizes to "" (identity is its only way to score);
	// the same empty-normal-form literal on both sides, plus a distinct
	// one that must score 0.
	f.insert1("A", "a", rdf.Literal("Lebron James"))
	f.insert1("A", "b", rdf.IRI("http://shared.example.org/#--"))
	f.insert1("A", "c", rdf.Literal("!!!"))
	f.insert2("R1", "q", rdf.Literal("Lebron James"))
	f.insert2("R1", "r", rdf.Literal("Lebron James"))
	f.insert2("R1", "s", rdf.IRI("http://shared.example.org/#--"))
	f.insert2("R1", "t", rdf.Literal("!!!"))
	f.insert2("R1", "u", rdf.Literal("???"))

	// B: numbers and dates exactly at the θ=0.8 window edge (|Δ| = 2
	// and 73 days score exactly 0.8) and just past it.
	f.insert1("B", "d", rdf.TypedLiteral("10", rdf.XSDInteger))
	f.insert1("B", "e", rdf.TypedLiteral("2000-01-01", rdf.XSDDate))
	f.insert2("R2", "q", rdf.TypedLiteral("12", rdf.XSDInteger))
	f.insert2("R2", "r", rdf.TypedLiteral("2000-03-14", rdf.XSDDate))
	f.insert2("R3", "q", rdf.TypedLiteral("12.5", rdf.XSDDecimal))
	f.insert2("R3", "r", rdf.TypedLiteral("2000-03-15", rdf.XSDDate))

	// C has more attributes than R4, so features are row maxima; row a
	// ties between columns q and r, and the first column must win.
	f.insert1("C", "a", rdf.Literal("abc def"))
	f.insert1("C", "b", rdf.Literal("zzz"))
	f.insert1("C", "c", rdf.Literal("yyy"))
	f.insert2("R4", "q", rdf.Literal("abc deg"))
	f.insert2("R4", "r", rdf.Literal("abc dex"))

	// D has fewer attributes than R5, so features are column maxima;
	// column q ties between rows a and b, and the first row must win.
	f.insert1("D", "a", rdf.Literal("Kevin Durant"))
	f.insert1("D", "b", rdf.Literal("Kevin Durant"))
	f.insert2("R5", "q", rdf.Literal("Kevin Durant"))
	f.insert2("R5", "r", rdf.Literal("x1"))
	f.insert2("R5", "s", rdf.Literal("x2"))
	f.entities()

	p := func(ds, name string) rdf.ID { return mustID(f.d, "http://"+ds+"/"+name) }
	link := func(e1, e2 string) links.Link { return links.Link{E1: p("ds1", e1), E2: p("ds2", e2)} }
	key := func(p1, p2 string) Key { return Key{P1: p("ds1", p1), P2: p("ds2", p2)} }

	for _, theta := range oracleThetas {
		want := pairwiseBuild(f.g1, f.g2, f.e1, f.e2, theta, nil)
		for _, workers := range []int{1, 2, 8} {
			got := Build(f.g1, f.g2, f.e1, f.e2, Options{Theta: theta, Workers: workers})
			sameSpace(t, fmt.Sprintf("fixture θ=%g workers=%d", theta, workers), got, want)
		}
	}

	sp := Build(f.g1, f.g2, f.e1, f.e2, Options{Theta: 0.8, Workers: 2})
	for _, tc := range []struct {
		link  links.Link
		key   Key
		score float64 // -1: the feature must be absent
	}{
		{link("A", "R1"), key("a", "q"), 1},   // one value, two predicates:
		{link("A", "R1"), key("a", "r"), 1},   // a column max each
		{link("A", "R1"), key("b", "s"), 1},   // shared IRI, empty local name
		{link("A", "R1"), key("c", "t"), 1},   // same empty-normal-form literal
		{link("A", "R1"), key("c", "u"), -1},  // different one scores 0
		{link("B", "R2"), key("d", "q"), 0.8}, // |Δ| = 2 at θ = 0.8
		{link("B", "R2"), key("e", "r"), 0.8}, // |Δ| = 73 days at θ = 0.8
		{link("B", "R3"), key("d", "q"), -1},  // |Δ| = 2.5
		{link("B", "R3"), key("e", "r"), -1},  // |Δ| = 74 days
	} {
		if got := sp.FeatureSet(tc.link).Score(tc.key); math.Abs(got-tc.score) > 1e-12 {
			t.Errorf("θ=0.8: link %v feature %v = %g, want %g", tc.link, tc.key, got, tc.score)
		}
	}
	sp = Build(f.g1, f.g2, f.e1, f.e2, Options{Theta: 0.5, Workers: 2})
	if got := sp.FeatureSet(link("C", "R4")); len(got) != 1 || got[0].Key != key("a", "q") {
		t.Errorf("row tie: C/R4 set = %v, want the first column (a, q) alone", got)
	}
	if got := sp.FeatureSet(link("D", "R5")); len(got) != 1 || got[0].Key != key("a", "q") {
		t.Errorf("column tie: D/R5 set = %v, want the first row (a, q) alone", got)
	}
}

// TestBuildNonFiniteNumbers covers plain literals that parse as NaN or
// infinite numbers: their scores against other numbers are NaN, which
// the θ-filter keeps, so the join must find them without blocking keys.
func TestBuildNonFiniteNumbers(t *testing.T) {
	f := newFixture()
	f.insert1("A", "a", rdf.Literal("NaN"))
	f.insert1("B", "a", rdf.Literal("5"))
	f.insert1("C", "a", rdf.Literal("Inf"))
	f.insert2("R1", "q", rdf.Literal("7"))
	f.insert2("R2", "q", rdf.Literal("nan"))
	f.insert2("R3", "q", rdf.Literal("+inf"))
	f.entities()
	for _, theta := range []float64{DefaultTheta, 0.9} {
		want := pairwiseBuild(f.g1, f.g2, f.e1, f.e2, theta, nil)
		for _, workers := range []int{1, 2} {
			got := Build(f.g1, f.g2, f.e1, f.e2, Options{Theta: theta, Workers: workers})
			sameSpace(t, fmt.Sprintf("non-finite θ=%g workers=%d", theta, workers), got, want)
		}
	}
}

func TestPrefixLen(t *testing.T) {
	for _, tc := range []struct {
		n     int
		theta float64
		want  int
	}{
		{0, 0.3, 0},
		{1, 0.3, 1},
		{10, 0.3, 8},
		{10, 0.9, 2},
		{10, 1.0, 1},
		{10, 1.5, 0},
		{40, 0.3, 29},
	} {
		if got := prefixLen(tc.n, tc.theta); got != tc.want {
			t.Errorf("prefixLen(%d, %g) = %d, want %d", tc.n, tc.theta, got, tc.want)
		}
	}
}

func TestBucketOfMonotone(t *testing.T) {
	vals := []float64{-1e300, -12345.6, -10, -0.1, 0, 0.1, 9.99, 10, 123456.7, 1e300}
	for i := 1; i < len(vals); i++ {
		if bucketOf(vals[i-1], 10) > bucketOf(vals[i], 10) {
			t.Errorf("bucketOf not monotone at %g vs %g", vals[i-1], vals[i])
		}
	}
	// Values within one window land in adjacent buckets.
	for _, d := range []float64{0, 1, 4.9, 9.9} {
		a, b := bucketOf(100, 10), bucketOf(100+d, 10)
		if b-a > 1 {
			t.Errorf("Δ=%g spans %d buckets", d, b-a)
		}
	}
}
