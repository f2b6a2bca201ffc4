package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"graql/internal/obs"
	"graql/internal/server"
)

// outcome is one request as the load generator saw it. Times are offsets
// from the start of the phase.
type outcome struct {
	req   request
	conn  int
	sched time.Duration // when the request was due (open loop) or sent (closed loop)
	sent  time.Duration // when its frame was written
	recv  time.Duration // when its response was read
	resp  *server.Response
	bytes int // encoded response size
	trace string
	err   error
}

// latency is the request's time from its scheduled send to its response.
func (o *outcome) latency() time.Duration { return o.recv - o.sched }

// rtt is the request's time from its actual send to its response.
func (o *outcome) rtt() time.Duration { return o.recv - o.sent }

// failed reports a transport error or an error response.
func (o *outcome) failed() bool { return o.err != nil || o.resp == nil || !o.resp.OK }

// loopConfig is what both loops need to send a workload's requests.
type loopConfig struct {
	conns []*conn
	w     *workload
	prep  map[string]string // prepared query name -> handle id
	seed  int64
	trace bool // give every request a fresh trace id
	// unguarded sends without the table guard, so scripts over one
	// result table may overlap on the two connections (the race probe).
	unguarded bool
	// phases counts the loops run so far. Each loop draws from its own
	// streams, so no two phases send the same write (inserted ids stay
	// unique).
	phases int
}

// streams returns the first stream id of the next loop: the open loop
// uses it, closed-loop connection k uses it + k.
func (lc *loopConfig) streams() int {
	lc.phases++
	return lc.phases * 16
}

func (lc *loopConfig) wireRequest(r *request) (*server.Request, string) {
	var tid string
	if lc.trace {
		tid = obs.NewTraceID().String()
	}
	return r.wireRequest(lc.prep, tid), tid
}

// tableGuard keeps scripts that write and re-read one result table from
// overlapping on different connections. Berlin scripts share global
// result tables (BQ1 and BQ2 both write T1), so two such scripts running
// at once on two connections can read each other's table; see
// raceExplained. The server runs one connection's requests in order, so
// scripts over a table are safe while they all go to one connection.
// The nil guard guards nothing.
type tableGuard struct {
	mu    sync.Mutex
	freed *sync.Cond
	owner map[string]int // table -> connection its outstanding scripts are on
	n     map[string]int // table -> outstanding scripts over it
}

func newTableGuard() *tableGuard {
	g := &tableGuard{owner: map[string]int{}, n: map[string]int{}}
	g.freed = sync.NewCond(&g.mu)
	return g
}

// route picks the connection of a script over table: the one its
// table's outstanding scripts are on, else pick().
func (g *tableGuard) route(table string, pick func() int) int {
	if g == nil || table == "" {
		return pick()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	k := g.owner[table]
	if g.n[table] == 0 {
		k = pick()
	}
	g.owner[table] = k
	g.n[table]++
	return k
}

// hold waits until no other connection than k has scripts over table
// outstanding, then counts one more on k.
func (g *tableGuard) hold(table string, k int) {
	if g == nil || table == "" {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.n[table] > 0 && g.owner[table] != k {
		g.freed.Wait()
	}
	g.owner[table] = k
	g.n[table]++
}

// release ends one outstanding script over table.
func (g *tableGuard) release(table string) {
	if g == nil || table == "" {
		return
	}
	g.mu.Lock()
	g.n[table]--
	g.mu.Unlock()
	g.freed.Broadcast()
}

func (lc *loopConfig) guard() *tableGuard {
	if lc.unguarded {
		return nil
	}
	return newTableGuard()
}

// openLoop sends one stream at a fixed rate for dur: request i is due at
// i/rate and goes, at that time, to the connection with the fewest
// outstanding requests (ties alternate), pipelined behind whatever that
// connection still has outstanding. A script over a result table that
// has scripts outstanding goes to their connection instead (tableGuard).
// Late responses delay nothing: the schedule never waits for the server.
func openLoop(lc *loopConfig, rate float64, dur time.Duration) ([]*outcome, error) {
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	outs := make([]*outcome, 0, n)
	queues := make([]chan *outcome, len(lc.conns))
	pending := make([]atomic.Int64, len(lc.conns))
	g := lc.guard()
	var wg sync.WaitGroup
	start := time.Now()
	for k, c := range lc.conns {
		queues[k] = make(chan *outcome, n+1)
		wg.Add(1)
		go func(k int, c *conn, q chan *outcome) {
			defer wg.Done()
			var broken error
			for o := range q {
				if broken != nil {
					o.err = broken
					continue
				}
				o.resp, o.bytes, o.err = c.recv()
				o.recv = time.Since(start)
				pending[k].Add(-1)
				g.release(o.req.q.into)
				broken = o.err
			}
		}(k, c, queues[k])
	}
	stream := lc.streams()
	rng := streamRNG(lc.seed, stream)
	var sendErr error
	for i := 0; i < n && sendErr == nil; i++ {
		o := &outcome{req: lc.w.draw(rng, stream, i), sched: time.Duration(i) * interval}
		wr, tid := lc.wireRequest(&o.req)
		o.trace = tid
		if d := o.sched - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		o.conn = g.route(o.req.q.into, func() int { return leastPending(pending, i) })
		pending[o.conn].Add(1)
		queues[o.conn] <- o
		o.sent = time.Since(start)
		sendErr = lc.conns[o.conn].send(wr)
		outs = append(outs, o)
	}
	for _, q := range queues {
		close(q)
	}
	if sendErr != nil {
		return nil, fmt.Errorf("open loop send: %v", sendErr)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(dur + 60*time.Second):
		return nil, fmt.Errorf("open loop: responses still outstanding 60s after the schedule ended")
	}
	return outs, nil
}

// leastPending picks the connection with the fewest outstanding
// requests, preferring connection i mod n on a tie.
func leastPending(pending []atomic.Int64, i int) int {
	n := len(pending)
	best := i % n
	for k := 1; k < n; k++ {
		if c := (i + k) % n; pending[c].Load() < pending[best].Load() {
			best = c
		}
	}
	return best
}

// closedLoop runs one client per connection for dur: each sends its next
// request (from its own stream) only after the previous one completed. A
// client whose script is over a result table with a script outstanding
// on the other connection waits for it first (tableGuard).
func closedLoop(lc *loopConfig, dur time.Duration) []*outcome {
	per := make([][]*outcome, len(lc.conns))
	base := lc.streams()
	g := lc.guard()
	var wg sync.WaitGroup
	start := time.Now()
	for k := range lc.conns {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := lc.conns[k]
			rng := streamRNG(lc.seed, base+k)
			for i := 0; time.Since(start) < dur; i++ {
				o := &outcome{req: lc.w.draw(rng, base+k, i), conn: k}
				wr, tid := lc.wireRequest(&o.req)
				o.trace = tid
				g.hold(o.req.q.into, k)
				o.sched = time.Since(start)
				o.sent = o.sched
				if o.err = c.send(wr); o.err == nil {
					o.resp, o.bytes, o.err = c.recv()
				}
				o.recv = time.Since(start)
				g.release(o.req.q.into)
				per[k] = append(per[k], o)
				if o.err != nil {
					return
				}
			}
		}(k)
	}
	wg.Wait()
	var outs []*outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	return outs
}

// latencies returns the latencies in ms of the selected outcomes; a
// failed request counts as infinitely late (it misses any limit).
func latencies(outs []*outcome, keep func(*outcome) bool) []float64 {
	var xs []float64
	for _, o := range outs {
		if !keep(o) {
			continue
		}
		if o.failed() {
			xs = append(xs, math.Inf(1))
		} else {
			xs = append(xs, ms(o.latency()))
		}
	}
	return xs
}

func isRead(o *outcome) bool  { return !o.req.isWrite() }
func isWrite(o *outcome) bool { return o.req.isWrite() }
