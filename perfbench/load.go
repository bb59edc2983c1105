package main

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// call is one scheduled request.
type call struct {
	due int64 // ns after the phase start; open loop only
	in  *input
}

// plan is one phase's traffic: a call list per connection. A closed loop
// cycles through its list until the window ends; an open loop sends each
// call at its due time.
type plan struct {
	closed bool
	conns  [][]call
}

// maxLate bounds how far an open-loop generator may fall behind before it
// drops calls instead of sending them; drops count as failures, and the
// bound keeps an overloaded run within its time limit.
const maxLate = 2 * time.Second

// tally is what one phase observed, from the benchmark's own bookkeeping.
type tally struct {
	lat       [2]*hist  // ns per class: closed loop from send, open loop from due time
	late      *hist     // open loop: send time minus due time, ns
	win       []second  // the phase cut into seconds by send (or due) time
	steal     []float64 // the machine's CPU steal share in each second
	winLen    time.Duration
	attempted int64
	ok        int64 // validated 200 replies
	wrong     int64 // 200 replies whose body failed validation
	rejected  int64 // 429 and 503
	errs      int64 // other statuses, I/O errors and timeouts
	drops     int64 // open-loop calls never sent (generator too late)
	elapsed   time.Duration
	// rtt holds, per connection, each request's client latency in send
	// order; traced phases join it to server spans by request id.
	rtt      [][]int64
	seq      []int64 // one connection's rtt while it runs
	firstErr error
}

// second is one window of a phase: the class-0 latencies and the validated
// replies of the requests sent (or due) in it.
type second struct {
	lat *hist
	ok  int64
}

// newTally makes a tally for a phase of length d.
func newTally(d time.Duration) *tally {
	n := max(1, int(d.Round(time.Second)/time.Second))
	t := &tally{lat: [2]*hist{newHist(), newHist()}, late: newHist(), winLen: d / time.Duration(n)}
	for i := 0; i < n; i++ {
		t.win = append(t.win, second{lat: newHist()})
	}
	return t
}

func (t *tally) failed() int64 { return t.wrong + t.rejected + t.errs + t.drops }

// merge adds o's observations, o being another connection of the same
// phase; elapsed becomes the longer of the two.
func (t *tally) merge(o *tally) {
	for c := range t.lat {
		t.lat[c].merge(o.lat[c])
	}
	for i := range o.win {
		t.win[i].lat.merge(o.win[i].lat)
		t.win[i].ok += o.win[i].ok
	}
	t.late.merge(o.late)
	t.elapsed = max(t.elapsed, o.elapsed)
	t.attempted += o.attempted
	t.ok += o.ok
	t.wrong += o.wrong
	t.rejected += o.rejected
	t.errs += o.errs
	t.drops += o.drops
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// perSecond is the median of f over the third of the phase's seconds in
// which the host stole the least CPU. On the shared VM this benchmark was
// built on, steal under load swung between 0 and 44% of the machine within
// seconds, and a spinning loop ran at 0.5x to 1.2x of its median speed in
// step with it; choosing seconds by steal, which the program cannot
// influence, keeps that out of the metrics as far as a run allows.
func (t *tally) perSecond(f func(second) float64) float64 {
	idx := make([]int, len(t.win))
	for i := range idx {
		idx[i] = i
	}
	if len(t.steal) == len(t.win) {
		slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(t.steal[a], t.steal[b]) })
		idx = idx[:max(1, len(idx)/3)]
	}
	var xs []float64
	for _, i := range idx {
		xs = append(xs, f(t.win[i]))
	}
	return medianF(xs)
}

// sampleSteal reads the machine's CPU steal share over each of n windows
// of length winLen from start, from /proc/stat. It returns nil when the
// counters are unreadable.
func sampleSteal(start time.Time, winLen time.Duration, n int) []float64 {
	time.Sleep(time.Until(start))
	s0, t0, ok := procStat()
	var out []float64
	for i := 1; i <= n && ok; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * winLen)))
		var s1, t1 int64
		if s1, t1, ok = procStat(); ok {
			out = append(out, share(float64(s1-s0), float64(t1-t0)))
			s0, t0 = s1, t1
		}
	}
	if !ok {
		return nil
	}
	return out
}

// procStat returns the machine's cumulative steal and total CPU ticks.
func procStat() (steal, total int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// reqID numbers request k of connection g so ids are unique across the
// phase's connections.
func reqID(k, g, nconns int) int64 { return int64(k*nconns + g) }

// drive runs one phase against addr: one goroutine and one keep-alive
// connection per call list. With traced set, each request carries its id.
func drive(addr string, p *plan, window time.Duration, traced bool) *tally {
	start := time.Now().Add(5 * time.Millisecond)
	deadline := start.Add(window + maxLate + 30*time.Second)
	out := newTally(window)
	stealc := make(chan []float64, 1)
	go func() { stealc <- sampleSteal(start, out.winLen, len(out.win)) }()
	parts := make([]*tally, len(p.conns))
	var wg sync.WaitGroup
	for g := range p.conns {
		parts[g] = newTally(window)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen := generator{addr: addr, deadline: deadline, start: start, t: parts[g], traced: traced, id: g, n: len(p.conns)}
			if p.closed {
				gen.closed(p.conns[g], window)
			} else {
				gen.open(p.conns[g])
			}
			gen.hangUp()
		}(g)
	}
	wg.Wait()
	for _, part := range parts {
		out.merge(part)
		out.rtt = append(out.rtt, part.seq)
	}
	out.steal = <-stealc
	return out
}

type generator struct {
	addr     string
	deadline time.Time
	start    time.Time
	t        *tally
	c        *client
	traced   bool
	id, n    int
	k        int
}

func (g *generator) hangUp() {
	if g.c != nil {
		g.c.close()
		g.c = nil
	}
}

// send issues one call and books its outcome; t0 is the latency origin.
func (g *generator) send(in *input, t0 time.Time) {
	t := g.t
	t.attempted++
	id := int64(-1)
	if g.traced {
		id = reqID(g.k, g.id, g.n)
	}
	g.k++
	if g.c == nil {
		c, err := dial(g.addr, g.deadline)
		if err != nil {
			t.errs++
			t.fail(err)
			g.record(-1)
			return
		}
		g.c = c
	}
	status, body, err := g.c.do(in, id)
	lat := time.Since(t0).Nanoseconds()
	if err != nil && !errors.Is(err, errConnClosed) {
		t.errs++
		t.fail(err)
		g.hangUp()
		g.record(-1)
		return
	}
	if errors.Is(err, errConnClosed) {
		g.hangUp()
	}
	switch {
	case status == 200 && bytes.Equal(body, in.want):
		t.ok++
		t.lat[in.class].add(lat)
		if in.class == 0 {
			s := &t.win[min(len(t.win)-1, int(t0.Sub(g.start)/t.winLen))]
			s.lat.add(lat)
			s.ok++
		}
	case status == 200:
		t.wrong++
		t.fail(fmt.Errorf("wrong reply to %s", in.head[:bytes.IndexByte(in.head, '\r')]))
	case status == 429 || status == 503:
		t.rejected++
	default:
		t.errs++
		t.fail(fmt.Errorf("status %d: %q", status, body))
	}
	g.record(lat)
}

func (g *generator) record(lat int64) {
	if g.traced {
		g.t.seq = append(g.t.seq, lat)
	}
}

func (t *tally) fail(err error) {
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (g *generator) closed(calls []call, window time.Duration) {
	time.Sleep(time.Until(g.start))
	end := g.start.Add(window)
	for i := 0; ; i++ {
		t0 := time.Now()
		if !t0.Before(end) {
			break
		}
		g.send(calls[i%len(calls)].in, t0)
	}
	g.t.elapsed = time.Since(g.start)
}

func (g *generator) open(calls []call) {
	p := newPacer()
	defer p.close()
	for _, cl := range calls {
		due := g.start.Add(time.Duration(cl.due))
		p.sleepUntil(due)
		late := time.Since(due)
		if late > maxLate {
			g.t.attempted++
			g.t.drops++
			g.k++
			g.record(-1)
			continue
		}
		g.t.late.add(late.Nanoseconds())
		g.send(cl.in, due)
	}
	g.t.elapsed = time.Since(g.start)
}

// poisson returns a seeded Poisson arrival schedule at rate per second
// over window, conditioned on its expected count: rate×window due times
// drawn uniformly and sorted. Fixing the count keeps the offered load the
// same for every seed.
func poisson(rng *rand.Rand, rate float64, window time.Duration, pick func() *input) []call {
	calls := make([]call, int(rate*window.Seconds()))
	for i := range calls {
		calls[i].due = rng.Int63n(window.Nanoseconds())
	}
	slices.SortFunc(calls, func(a, b call) int { return cmp.Compare(a.due, b.due) })
	for i := range calls {
		calls[i].in = pick()
	}
	return calls
}
