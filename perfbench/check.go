package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"sort"
	"strings"
	"sync"

	"alex/internal/federation"
	"alex/internal/rdf"
	"alex/internal/server"
)

// canonRows renders an answer as one canonical string: each row's
// bindings (sorted by variable) and link provenance (sorted), rows
// sorted. Two answers are the same exactly when their renderings are.
func canonRows(rows []server.RowJSON) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		vars := make([]string, 0, len(r.Binding))
		for v := range r.Binding {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		var b strings.Builder
		for _, v := range vars {
			t := r.Binding[v]
			fmt.Fprintf(&b, "%s=%s|%s|%s|%s\x1f", v, t.Kind, t.Value, t.Datatype, t.Lang)
		}
		ls := make([]string, len(r.Links))
		for j, l := range r.Links {
			ls[j] = l.E1 + " " + l.E2
		}
		sort.Strings(ls)
		b.WriteString(strings.Join(ls, ","))
		lines[i] = b.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// canonResult renders an in-process federation result the same way,
// through the wire types the server encodes with.
func canonResult(dict *rdf.Dict, res *federation.ResultSet) string {
	return canonRows(rowsJSON(dict, res))
}

func rowsJSON(dict *rdf.Dict, res *federation.ResultSet) []server.RowJSON {
	rows := make([]server.RowJSON, len(res.Rows))
	for i, row := range res.Rows {
		rj := server.RowJSON{Binding: map[string]server.TermJSON{}}
		for v, t := range row.Binding {
			kind := "iri"
			switch t.Kind {
			case rdf.KindLiteral:
				kind = "literal"
			case rdf.KindBlank:
				kind = "blank"
			}
			rj.Binding[v] = server.TermJSON{Kind: kind, Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
		}
		for _, l := range row.Used.Slice() {
			rj.Links = append(rj.Links, server.LinkJSON{E1: dict.Term(l.E1).Value, E2: dict.Term(l.E2).Value})
		}
		rows[i] = rj
	}
	return rows
}

// reference is the expected answer of one query text.
type reference struct {
	canon string
	rows  int
	links int // link provenance entries summed over rows
}

// verifier checks HTTP answers against references computed in-process
// before timing. A response body that already verified is recognised
// by its hash, so the steady state costs one hash per answer; a new
// body (another row order, say) is decoded and compared once.
type verifier struct {
	refs []reference
	seed maphash.Seed
	mu   sync.Mutex
	ok   []map[uint64]bool
}

func newVerifier(refs []reference) *verifier {
	v := &verifier{refs: refs, seed: maphash.MakeSeed(), ok: make([]map[uint64]bool, len(refs))}
	for i := range v.ok {
		v.ok[i] = map[uint64]bool{}
	}
	return v
}

// check reports whether body is a correct /query answer to text i.
func (v *verifier) check(i int, body []byte) error {
	h := maphash.Bytes(v.seed, body)
	v.mu.Lock()
	known := v.ok[i][h]
	v.mu.Unlock()
	if known {
		return nil
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("undecodable answer: %v", err)
	}
	if len(resp.DegradedSources) > 0 {
		return fmt.Errorf("degraded answer (sources %v)", resp.DegradedSources)
	}
	if got := canonRows(resp.Rows); got != v.refs[i].canon {
		return fmt.Errorf("answer differs from the reference: %d rows, want %d", len(resp.Rows), v.refs[i].rows)
	}
	v.mu.Lock()
	v.ok[i][h] = true
	v.mu.Unlock()
	return nil
}

// references evaluates every text in-process on the served snapshot.
func references(srv *server.Server, dict *rdf.Dict, texts []string) ([]reference, error) {
	fed := srv.Snapshot().Fed
	refs := make([]reference, len(texts))
	for i, q := range texts {
		res, err := fed.Query(q)
		if err != nil {
			return nil, fmt.Errorf("reference for %q: %w", q, err)
		}
		if len(res.Degraded) > 0 {
			return nil, fmt.Errorf("reference for %q is degraded", q)
		}
		refs[i] = reference{canon: canonResult(dict, res), rows: len(res.Rows)}
		for _, r := range res.Rows {
			refs[i].links += r.Used.Len()
		}
	}
	return refs, nil
}

// feedbackAccount is the feedback loop's bookkeeping, checked against
// the server's own counters after the run.
type feedbackAccount struct {
	ackedLinks   int64 // link-level items in 202-acked /feedback requests
	barriers     int64 // episode closes the client waited for
	serverLinks  int64 // alexd_feedback_links_total delta
	serverEpochs int64 // alexd_episodes_total delta
}

func (a feedbackAccount) check() error {
	if a.ackedLinks != a.serverLinks {
		return fmt.Errorf("acked %d feedback links, server applied %d", a.ackedLinks, a.serverLinks)
	}
	if a.barriers != a.serverEpochs {
		return fmt.Errorf("passed %d episode barriers, server closed %d episodes", a.barriers, a.serverEpochs)
	}
	return nil
}

// sameLinks compares two served link sets given as IRI pairs.
func sameLinks(want, got map[server.LinkJSON]bool) error {
	missing, extra := 0, 0
	for l := range want {
		if !got[l] {
			missing++
		}
	}
	for l := range got {
		if !want[l] {
			extra++
		}
	}
	if missing+extra > 0 {
		return fmt.Errorf("recovered link set differs: %d links missing, %d extra (want %d)", missing, extra, len(want))
	}
	return nil
}
