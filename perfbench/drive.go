package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one client connection: its own transport capped at a single
// TCP connection, so a run's connection count is its worker count.
type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the body, which stays
// valid until the next call on c.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// getJSON fetches path and decodes a 200 answer into v.
func (c *conn) getJSON(path string, v any) error {
	status, body, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(body, v)
}

// queryBodies pre-encodes the /query request of every text.
func queryBodies(texts []string) [][]byte {
	out := make([][]byte, len(texts))
	for i, q := range texts {
		out[i], _ = json.Marshal(map[string]string{"query": q})
	}
	return out
}

// obs is one completed request.
type obs struct {
	at   time.Duration // due (open loop) or send time, from phase start
	lat  float64       // ms from due time (open loop) or send (closed loop)
	late float64       // ms the open-loop generator sent after the due time
}

// samples collects one phase's per-request observations.
type samples struct {
	start     time.Time
	mu        sync.Mutex
	obs       []obs
	attempted atomic.Int64
	failed    atomic.Int64
	problems  []string
}

func newSamples() *samples { return &samples{start: time.Now()} }

func (s *samples) add(o []obs) {
	s.mu.Lock()
	s.obs = append(s.obs, o...)
	s.mu.Unlock()
}

func (s *samples) lats() []float64 {
	out := make([]float64, len(s.obs))
	for i, o := range s.obs {
		out[i] = o.lat
	}
	return out
}

func (s *samples) lates() []float64 {
	out := make([]float64, len(s.obs))
	for i, o := range s.obs {
		out[i] = o.late
	}
	return out
}

func (s *samples) fail(err error) {
	s.failed.Add(1)
	s.mu.Lock()
	if len(s.problems) < 5 {
		s.problems = append(s.problems, err.Error())
	}
	s.mu.Unlock()
}

// answerCheck validates one /query answer to text i.
type answerCheck func(i int, status int, body []byte) error

// openLoop sends request k at start+k/rate regardless of completions,
// spreading requests round-robin over conns. pick(k) chooses request
// k's text. The runtime's timers wake at millisecond resolution when
// the process idles, so sends drift behind their due times by up to a
// millisecond. Latency therefore replays each connection as an ideal
// generator would have driven it: request k starts at its due time or
// when the connection's previous request would have finished, and takes
// its measured service time. A stall still charges every request queued
// behind it; the generator's own sleep granularity does not. The raw
// lateness is reported on its own.
func openLoop(conns []*conn, bodies [][]byte, rate float64, dur time.Duration, pick func(k int) int, check answerCheck) *samples {
	s := newSamples()
	period := time.Duration(float64(time.Second) / rate)
	start := s.start
	end := start.Add(dur)
	var wg sync.WaitGroup
	for w, c := range conns {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			var (
				got  []obs
				free time.Time // when the ideal connection is next idle
			)
			for k := w; ; k += len(conns) {
				due := start.Add(time.Duration(k) * period)
				if !due.Before(end) {
					break
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				i := pick(k)
				s.attempted.Add(1)
				status, body, err := c.do(http.MethodPost, "/query", bodies[i])
				done := time.Now()
				if err == nil {
					err = check(i, status, body)
				}
				if err != nil {
					s.fail(err)
					continue
				}
				var o obs
				o, free = openObs(start, due, sent, done, free)
				got = append(got, o)
			}
			s.add(got)
		}(w, c)
	}
	wg.Wait()
	return s
}

// openObs times one open-loop request on an ideal connection that is
// next idle at free (see openLoop), and returns when it is idle again.
func openObs(start, due, sent, done, free time.Time) (obs, time.Time) {
	begin := due
	if free.After(due) {
		begin = free
	}
	end := begin.Add(done.Sub(sent))
	return obs{at: due.Sub(start), lat: ms(end.Sub(due)), late: ms(sent.Sub(due))}, end
}

// closedLoop runs one worker per conn until dur has passed; each sends
// its next request when the previous one completes. next(w) chooses the
// worker's next text.
func closedLoop(conns []*conn, bodies [][]byte, dur time.Duration, next func(w int) int, check answerCheck) *samples {
	s := newSamples()
	end := s.start.Add(dur)
	var wg sync.WaitGroup
	for w, c := range conns {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			var got []obs
			for time.Now().Before(end) {
				i := next(w)
				s.attempted.Add(1)
				sent := time.Now()
				status, body, err := c.do(http.MethodPost, "/query", bodies[i])
				done := time.Now()
				if err == nil {
					err = check(i, status, body)
				}
				if err != nil {
					s.fail(err)
					continue
				}
				got = append(got, obs{at: sent.Sub(s.start), lat: ms(done.Sub(sent))})
			}
			s.add(got)
		}(w, c)
	}
	wg.Wait()
	return s
}

// statusOK wraps an answer check with the 200 requirement.
func statusOK(check func(i int, body []byte) error) answerCheck {
	return func(i, status int, body []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("/query status %d: %.200s", status, body)
		}
		return check(i, body)
	}
}
