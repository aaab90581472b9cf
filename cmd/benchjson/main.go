// Command benchjson converts `go test -bench` output into a JSON
// file while echoing the original text through unchanged, so it can sit
// at the end of a benchmark pipe:
//
//	go test -bench BenchmarkSpaceBuild -cpu=1,2,4,8 ./internal/feature |
//	    go run ./cmd/benchjson -out BENCH_space.json
//
// Each benchmark result line becomes one JSON record with the metrics
// Go reports: ns/op always, plus pairs/s, queries/s, B/op and allocs/op
// when the benchmark emits them. The -cpu suffix of the benchmark name
// is parsed into its own field so scaling rows are directly comparable.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Row is one benchmark result.
type Row struct {
	Name          string  `json:"name"`
	CPUs          int     `json:"cpus"`
	Iterations    int64   `json:"iterations"`
	NsPerOp       float64 `json:"ns_per_op"`
	PairsPerSec   float64 `json:"pairs_per_sec,omitempty"`
	QueriesPerSec float64 `json:"queries_per_sec,omitempty"`
	BytesPerOp    float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp   float64 `json:"allocs_per_op,omitempty"`
	// DeltaVsPrev is the ns/op change relative to the same (name, cpus)
	// row in the JSON file being overwritten, e.g. "-12.3%". Absent
	// when there is no previous file or no matching row.
	DeltaVsPrev string `json:"delta_vs_prev,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH_space.json", "JSON output file")
	flag.Parse()

	var rows []Row
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if r, ok := parseLine(line); ok {
			rows = append(rows, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines on stdin")
		os.Exit(1)
	}
	annotateDeltas(rows, *out)
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d rows to %s\n", len(rows), *out)
}

// annotateDeltas reads the JSON file about to be overwritten (if any)
// and fills each row's DeltaVsPrev with the ns/op change against the
// previous row of the same (name, cpus), so successive `make bench-*`
// runs show regressions inline without a separate diff tool.
func annotateDeltas(rows []Row, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return // first run, or unreadable — nothing to compare against
	}
	var prev []Row
	if err := json.Unmarshal(data, &prev); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: ignoring unparsable previous %s: %v\n", path, err)
		return
	}
	type key struct {
		name string
		cpus int
	}
	old := make(map[key]float64, len(prev))
	for _, r := range prev {
		if r.NsPerOp > 0 {
			old[key{r.Name, r.CPUs}] = r.NsPerOp
		}
	}
	for i := range rows {
		base, ok := old[key{rows[i].Name, rows[i].CPUs}]
		if !ok || rows[i].NsPerOp == 0 {
			continue
		}
		rows[i].DeltaVsPrev = fmt.Sprintf("%+.1f%%", 100*(rows[i].NsPerOp-base)/base)
		fmt.Fprintf(os.Stderr, "benchjson: %s-%d ns/op %s vs previous run\n",
			rows[i].Name, rows[i].CPUs, rows[i].DeltaVsPrev)
	}
}

// parseLine recognizes a result line such as
//
//	BenchmarkSpaceBuild-8  2  512345678 ns/op  801234 pairs/s  96 B/op  3 allocs/op
//
// and returns false for everything else (headers, PASS, ok, …).
func parseLine(line string) (Row, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Row{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Row{}, false
	}
	r := Row{Name: f[0], CPUs: 1, Iterations: iters}
	if i := strings.LastIndexByte(f[0], '-'); i >= 0 {
		if n, err := strconv.Atoi(f[0][i+1:]); err == nil {
			r.Name, r.CPUs = f[0][:i], n
		}
	}
	// The rest alternates value, unit.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Row{}, false
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "pairs/s":
			r.PairsPerSec = v
		case "queries/s":
			r.QueriesPerSec = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	if r.NsPerOp == 0 {
		return Row{}, false
	}
	return r, true
}
