package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by nearest rank; xs
// is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSample is the process-wide counters a timed window is bracketed
// by: CPU from getrusage, allocations from MemStats, GC from
// runtime/metrics.
type procSample struct {
	at       time.Time
	cpu      time.Duration
	mallocs  uint64
	numGC    uint32
	gcCPU    float64
	totalCPU float64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rm := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(rm)
	s := procSample{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
	}
	if rm[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = rm[0].Value.Float64()
	}
	if rm[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = rm[1].Value.Float64()
	}
	return s
}

// liveHeapMB forces a GC and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// window is the process-wide cost of a measured interval.
type window struct {
	elapsed time.Duration
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
	gcFrac  float64
}

func between(a, b procSample) window {
	return window{
		elapsed: b.at.Sub(a.at),
		cpu:     b.cpu - a.cpu,
		mallocs: b.mallocs - a.mallocs,
		gcs:     b.numGC - a.numGC,
		gcFrac:  safeDiv(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
	}
}

// promText is one scrape of a /metrics page: series name (labels
// included) to value.
type promText map[string]float64

func scrape(hc *http.Client, base string) (promText, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	out := promText{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is the counter growth of name between two scrapes.
func delta(a, b promText, name string) float64 { return b[name] - a[name] }

// histMean is the mean of a histogram's observations between two
// scrapes, in the histogram's unit.
func histMean(a, b promText, name string) float64 {
	return safeDiv(delta(a, b, name+"_sum"), delta(a, b, name+"_count"))
}

// probe samples the process counters at its start and then every
// period until stopped; consecutive samples bound the sub-windows the
// end-to-end figures take medians over.
type probe struct {
	ticks []procSample
	stop  chan struct{}
	done  chan struct{}
}

func startProbe(every time.Duration) *probe {
	pr := &probe{ticks: []procSample{sampleProc()}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(pr.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				pr.ticks = append(pr.ticks, sampleProc())
			case <-pr.stop:
				return
			}
		}
	}()
	return pr
}

// finish stops the probe and returns its samples: the full windows,
// plus a final sample closing the partial one (which the windowed
// figures ignore).
func (pr *probe) finish() (full []procSample, last procSample) {
	close(pr.stop)
	<-pr.done
	return pr.ticks, sampleProc()
}

// windowStats are end-to-end figures, each the median over equal
// sub-windows of the measured phase, so one stall or one burst of a
// noisy neighbour moves one window, not the run.
type windowStats struct {
	qps, p50, p99, cpuUs, allocs float64
}

// windowed splits obs by start offset from start into the windows
// between consecutive probe samples.
func windowed(obs []obs, start time.Time, ticks []procSample) windowStats {
	n := len(ticks) - 1
	bounds := make([]time.Duration, len(ticks))
	for i, t := range ticks {
		bounds[i] = t.at.Sub(start)
	}
	lat := make([][]float64, n)
	for _, o := range obs {
		i := sort.Search(len(bounds), func(j int) bool { return bounds[j] > o.at }) - 1
		if i >= 0 && i < n {
			lat[i] = append(lat[i], o.lat)
		}
	}
	var qps, p50, p99, cpu, allocs []float64
	for i := 0; i < n; i++ {
		done := float64(len(lat[i]))
		if done == 0 {
			continue
		}
		w := between(ticks[i], ticks[i+1])
		qps = append(qps, done/w.elapsed.Seconds())
		p50 = append(p50, percentile(lat[i], 0.50))
		p99 = append(p99, percentile(lat[i], 0.99))
		cpu = append(cpu, float64(w.cpu.Microseconds())/done)
		allocs = append(allocs, float64(w.mallocs)/done)
	}
	return windowStats{qps: median(qps), p50: median(p50), p99: median(p99), cpuUs: median(cpu), allocs: median(allocs)}
}
