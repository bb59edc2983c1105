package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"sledge/internal/abi"
	"sledge/internal/engine"
	"sledge/internal/sandbox"
	"sledge/internal/wcc"
)

// ---- deque ----

func TestDequeLIFOOwner(t *testing.T) {
	d := NewDeque[int](4)
	vals := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // forces growth past 8
	for i := range vals {
		d.PushBottom(&vals[i])
	}
	if d.Size() != len(vals) {
		t.Errorf("Size = %d", d.Size())
	}
	for i := len(vals) - 1; i >= 0; i-- {
		x, ok := d.PopBottom()
		if !ok || *x != vals[i] {
			t.Fatalf("PopBottom = %v, %v; want %d", x, ok, vals[i])
		}
	}
	if _, ok := d.PopBottom(); ok {
		t.Error("PopBottom on empty succeeded")
	}
}

func TestDequeStealFIFO(t *testing.T) {
	d := NewDeque[int](8)
	vals := []int{1, 2, 3}
	for i := range vals {
		d.PushBottom(&vals[i])
	}
	for _, want := range vals {
		x, ok := d.Steal()
		if !ok || *x != want {
			t.Fatalf("Steal = %v, %v; want %d", x, ok, want)
		}
	}
	if _, ok := d.Steal(); ok {
		t.Error("Steal on empty succeeded")
	}
}

// TestDequeConcurrent is the core safety property: with one owner and many
// thieves, every pushed element is consumed exactly once.
func TestDequeConcurrent(t *testing.T) {
	const (
		numItems   = 20000
		numThieves = 4
	)
	d := NewDeque[int](8)
	items := make([]int, numItems)
	var consumed atomic.Int64
	seen := make([]atomic.Int32, numItems)

	var wg sync.WaitGroup
	done := make(chan struct{})
	for th := 0; th < numThieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if x, ok := d.Steal(); ok {
					seen[*x].Add(1)
					consumed.Add(1)
				} else {
					select {
					case <-done:
						if _, ok := d.Steal(); !ok {
							return
						}
					default:
					}
				}
			}
		}()
	}
	// Owner: push all items, popping some back.
	popped := 0
	for i := 0; i < numItems; i++ {
		items[i] = i
		d.PushBottom(&items[i])
		if i%7 == 0 {
			if x, ok := d.PopBottom(); ok {
				seen[*x].Add(1)
				consumed.Add(1)
				popped++
			}
		}
	}
	// Drain the remainder as the owner.
	for {
		x, ok := d.PopBottom()
		if !ok {
			break
		}
		seen[*x].Add(1)
		consumed.Add(1)
	}
	close(done)
	wg.Wait()
	// Final sweep: thieves may have lost races at shutdown.
	for {
		x, ok := d.Steal()
		if !ok {
			break
		}
		seen[*x].Add(1)
		consumed.Add(1)
	}

	if got := consumed.Load(); got != numItems {
		t.Fatalf("consumed %d of %d items", got, numItems)
	}
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("item %d consumed %d times", i, n)
		}
	}
}

func TestDequeSizeNeverNegativeProperty(t *testing.T) {
	f := func(ops []bool) bool {
		d := NewDeque[int](8)
		v := 1
		for _, push := range ops {
			if push {
				d.PushBottom(&v)
			} else {
				d.PopBottom()
			}
			if d.Size() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// ---- pool ----

const spinSrc = `
static u8 out[4];

export i32 main() {
	i32 n = sys_req_len();
	i32 acc = 0;
	for (i32 i = 0; i < n * 1000; i = i + 1) {
		acc = acc + i;
	}
	out[0] = 111; // 'o'
	sys_write(out, 1);
	return acc;
}
`

func compileTestModule(t *testing.T, src string) *engine.CompiledModule {
	t.Helper()
	res, err := wcc.Compile(src, wcc.Options{})
	if err != nil {
		t.Fatalf("wcc.Compile: %v", err)
	}
	cm, err := engine.CompileBinary(res.Binary, abi.Registry(), engine.Config{})
	if err != nil {
		t.Fatalf("engine.CompileBinary: %v", err)
	}
	return cm
}

func runBatch(t *testing.T, p *Pool, cm *engine.CompiledModule, n int, reqLen int) []*sandbox.Sandbox {
	t.Helper()
	var wg sync.WaitGroup
	out := make([]*sandbox.Sandbox, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sb, err := sandbox.New(cm, make([]byte, reqLen), sandbox.Options{})
		if err != nil {
			t.Fatalf("sandbox.New: %v", err)
		}
		sb.OnComplete = func(*sandbox.Sandbox) { wg.Done() }
		out[i] = sb
		if err := p.Submit(sb); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("batch did not complete: stats %+v", p.Stats())
	}
	return out
}

func TestPoolCompletesWork(t *testing.T) {
	for _, dist := range []Distribution{DistWorkStealing, DistGlobalDeque, DistGlobalLock, DistStatic} {
		t.Run(dist.String(), func(t *testing.T) {
			cm := compileTestModule(t, spinSrc)
			p := NewPool(Config{Workers: 2, Distribution: dist})
			defer p.Stop()
			boxes := runBatch(t, p, cm, 40, 10)
			for _, sb := range boxes {
				if sb.State() != sandbox.StateComplete {
					t.Errorf("sandbox %d state %s (err %v)", sb.ID, sb.State(), sb.Err)
				}
				if string(sb.Response()) != "o" {
					t.Errorf("sandbox %d response %q", sb.ID, sb.Response())
				}
			}
			st := p.Stats()
			if st.Completed != 40 {
				t.Errorf("Completed = %d, want 40", st.Completed)
			}
			if !p.Quiesce(time.Second) {
				t.Error("pool did not quiesce")
			}
		})
	}
}

func TestPreemptionOccurs(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	// Tiny quantum forces many preemptions on a long spin.
	p := NewPool(Config{Workers: 1, Quantum: 100 * time.Microsecond})
	defer p.Stop()
	boxes := runBatch(t, p, cm, 2, 2000) // 2M iterations each
	st := p.Stats()
	if st.Preemptions == 0 {
		t.Errorf("no preemptions recorded: %+v", st)
	}
	for _, sb := range boxes {
		if sb.Preemptions == 0 {
			t.Errorf("sandbox %d never preempted", sb.ID)
		}
	}
}

func TestCooperativeRunsToCompletion(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	p := NewPool(Config{Workers: 1, Policy: PolicyCooperative})
	defer p.Stop()
	boxes := runBatch(t, p, cm, 4, 500)
	st := p.Stats()
	if st.Preemptions != 0 {
		t.Errorf("cooperative policy preempted %d times", st.Preemptions)
	}
	for _, sb := range boxes {
		if sb.State() != sandbox.StateComplete {
			t.Errorf("sandbox %d state %s", sb.ID, sb.State())
		}
	}
}

// TestTemporalIsolation reproduces the §3.4 motivation: under preemptive
// round-robin a short function's completion is not serialized behind a
// CPU-hog, while under cooperative scheduling it is.
func TestTemporalIsolation(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	measure := func(policy Policy) time.Duration {
		p := NewPool(Config{Workers: 1, Policy: policy, Quantum: time.Millisecond})
		defer p.Stop()
		var wg sync.WaitGroup
		// The hog: large request -> long spin.
		hog, err := sandbox.New(cm, make([]byte, 20000), sandbox.Options{Tenant: "hog"})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		hog.OnComplete = func(*sandbox.Sandbox) { wg.Done() }
		if err := p.Submit(hog); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // let the hog start running
		short, err := sandbox.New(cm, make([]byte, 1), sandbox.Options{Tenant: "short"})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan time.Time, 1)
		wg.Add(1)
		short.OnComplete = func(*sandbox.Sandbox) { done <- time.Now(); wg.Done() }
		start := time.Now()
		if err := p.Submit(short); err != nil {
			t.Fatal(err)
		}
		at := <-done
		wg.Wait()
		return at.Sub(start)
	}
	preemptive := measure(PolicyPreemptiveRR)
	cooperative := measure(PolicyCooperative)
	if preemptive >= cooperative {
		t.Errorf("preemptive latency %v not better than cooperative %v", preemptive, cooperative)
	}
}

const kvSrc = `
static u8 key[4];
static u8 val[32];

export i32 main() {
	key[0] = 107;
	i32 n = sys_kv_get(key, 1, val, 32);
	if (n > 0) {
		sys_write(val, n);
	}
	return n;
}
`

func TestBlockedIOCompletesViaEventLoop(t *testing.T) {
	cm := compileTestModule(t, kvSrc)
	p := NewPool(Config{Workers: 1})
	defer p.Stop()
	store := abi.NewMapKV()
	store.Set("k", []byte("async-value"))
	kv := &abi.LatentKV{KVStore: store, Delay: 3 * time.Millisecond}

	sb, err := sandbox.New(cm, nil, sandbox.Options{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	sb.OnComplete = func(*sandbox.Sandbox) { close(done) }
	start := time.Now()
	if err := p.Submit(sb); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("blocked sandbox never completed (state %s)", sb.State())
	}
	if got := time.Since(start); got < 3*time.Millisecond {
		t.Errorf("completed in %v, before the simulated I/O latency", got)
	}
	if string(sb.Response()) != "async-value" {
		t.Errorf("response %q", sb.Response())
	}
	if st := p.Stats(); st.Blocked != 1 {
		t.Errorf("Blocked = %d, want 1", st.Blocked)
	}
}

func TestSubmitAfterStop(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	p := NewPool(Config{Workers: 1})
	p.Stop()
	sb, err := sandbox.New(cm, nil, sandbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(sb); err != ErrStopped {
		t.Errorf("Submit after stop: %v", err)
	}
	p.Stop() // idempotent
}

func TestWorkConservation(t *testing.T) {
	// Least-loaded placement spreads an even batch perfectly, so to
	// observe stealing the load must be unbalanced after placement: give
	// each worker one hog of very different lengths plus queued followers.
	// The workers whose hogs finish early go idle and must steal the
	// followers still queued behind the long hogs.
	cm := compileTestModule(t, spinSrc)
	p := NewPool(Config{Workers: 4, Quantum: time.Millisecond})
	defer p.Stop()

	var wg sync.WaitGroup
	submit := func(reqLen int) {
		wg.Add(1)
		sb, err := sandbox.New(cm, make([]byte, reqLen), sandbox.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sb.OnComplete = func(*sandbox.Sandbox) { wg.Done() }
		if err := p.Submit(sb); err != nil {
			t.Fatal(err)
		}
	}
	// One hog per worker: one tiny, three long.
	submit(2)
	for i := 0; i < 3; i++ {
		submit(4000)
	}
	// Followers queue behind the hogs (every worker already has load 1).
	for i := 0; i < 12; i++ {
		submit(200)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("batch did not complete: stats %+v", p.Stats())
	}
	st := p.Stats()
	if st.Completed != 16 {
		t.Errorf("Completed = %d, want 16", st.Completed)
	}
	if st.Steals == 0 {
		t.Error("no steals recorded under work-stealing distribution")
	}
}

// submitSpin submits a spin of reqLen×1000 iterations; onDone runs on the
// worker at completion.
func submitSpin(t *testing.T, p *Pool, cm *engine.CompiledModule, reqLen int, onDone func()) {
	t.Helper()
	sb, err := sandbox.New(cm, make([]byte, reqLen), sandbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sb.OnComplete = func(*sandbox.Sandbox) { onDone() }
	if err := p.Submit(sb); err != nil {
		t.Fatal(err)
	}
}

// waitPreempted waits until the pool has preempted at least n times.
func waitPreempted(t *testing.T, p *Pool, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Preemptions < n {
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d preemptions: %+v", n, p.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestQueueDepthExcludesRunning: a worker mid-quantum on its only sandbox
// has nothing queued — QueueDepth is 0 and the worker's load is the one
// running sandbox, not that sandbox counted again as queued.
func TestQueueDepthExcludesRunning(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	p := NewPool(Config{Workers: 1, Quantum: time.Millisecond})
	defer p.Stop()
	done := make(chan struct{})
	submitSpin(t, p, cm, 5000, func() { close(done) })
	waitPreempted(t, p, 1)
	for i := 0; i < 20; i++ {
		if d := p.QueueDepth(); d != 0 {
			t.Fatalf("QueueDepth = %d with one running sandbox, want 0", d)
		}
		if l := p.workers[0].load(); l > 1 {
			t.Fatalf("worker load = %d with one running sandbox, want <= 1", l)
		}
		time.Sleep(200 * time.Microsecond)
	}
	<-done
}

// TestArrivalRunsBeforePreemptedSandbox: a request that arrives while a
// lone hog is mid-quantum runs as soon as that quantum ends, ahead of the
// preempted hog — one preemption between submit and completion, not two.
// Preemptions are counted rather than wall time, so the test does not
// depend on host speed.
func TestArrivalRunsBeforePreemptedSandbox(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	p := NewPool(Config{Workers: 1, Quantum: 5 * time.Millisecond})
	defer p.Stop()
	hogDone := make(chan struct{})
	submitSpin(t, p, cm, 10000, func() { close(hogDone) })
	waitPreempted(t, p, 2)
	before := p.Stats().Preemptions
	at := make(chan uint64, 1)
	submitSpin(t, p, cm, 1, func() { at <- p.Stats().Preemptions })
	var after uint64
	select {
	case after = <-at:
	case <-hogDone:
		t.Fatal("hog finished before the short request")
	}
	if n := after - before; n > 1 {
		t.Errorf("%d preemptions between the short's submit and its completion, want <= 1", n)
	}
	<-hogDone
}

// TestShortStolenBehindHogs is the fairness property: a short function that
// placement queued behind a long hog must not wait for the hog — an idle
// peer steals and completes it. Cooperative mode is the sharp version (the
// hog never yields, so without stealing the short would wait the hog's
// entire runtime); preemptive mode must preserve the property too.
func TestShortStolenBehindHogs(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	for _, policy := range []Policy{PolicyPreemptiveRR, PolicyCooperative} {
		t.Run(policy.String(), func(t *testing.T) {
			p := NewPool(Config{Workers: 2, Policy: policy, Quantum: time.Millisecond})
			defer p.Stop()

			var wg sync.WaitGroup
			submit := func(reqLen int, onDone func()) {
				wg.Add(1)
				sb, err := sandbox.New(cm, make([]byte, reqLen), sandbox.Options{})
				if err != nil {
					t.Fatal(err)
				}
				sb.OnComplete = func(*sandbox.Sandbox) {
					if onDone != nil {
						onDone()
					}
					wg.Done()
				}
				if err := p.Submit(sb); err != nil {
					t.Fatal(err)
				}
			}

			var hogDone, shortsDone atomic.Int64
			// The hog occupies one worker for many quanta.
			start := time.Now()
			var hogAt, lastShortAt atomic.Int64
			submit(20000, func() { hogDone.Add(1); hogAt.Store(int64(time.Since(start))) })
			// Shorts tie-break across both workers, so some queue behind
			// the hog; the other worker must steal those.
			for i := 0; i < 6; i++ {
				submit(2, func() {
					shortsDone.Add(1)
					lastShortAt.Store(int64(time.Since(start)))
				})
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("batch did not complete: stats %+v", p.Stats())
			}
			hogLat := time.Duration(hogAt.Load())
			shortLat := time.Duration(lastShortAt.Load())
			if shortLat >= hogLat/2 {
				t.Errorf("last short finished at %v, not well before the hog at %v", shortLat, hogLat)
			}
			if st := p.Stats(); st.Steals == 0 {
				t.Errorf("no steals: shorts behind the hog were not rescued (stats %+v)", st)
			}
		})
	}
}

// TestNoLostWakeup is the regression test for the lost-wakeup window: with
// the idle poll effectively disabled, every completion must be driven by a
// targeted wakeup. Under the old shared wake channel, a worker could
// consume the single token, lose the steal race, and park — leaving the
// request to wait out the poll interval (here: the 20s test budget).
func TestNoLostWakeup(t *testing.T) {
	for _, dist := range []Distribution{DistWorkStealing, DistGlobalDeque, DistGlobalLock, DistStatic} {
		t.Run(dist.String(), func(t *testing.T) {
			cm := compileTestModule(t, spinSrc)
			const workers = 4
			p := NewPool(Config{
				Workers:      workers,
				Distribution: dist,
				IdlePoll:     time.Hour, // wakeups or bust
			})
			defer p.Stop()
			for round := 0; round < 20; round++ {
				var wg sync.WaitGroup
				for i := 0; i < workers; i++ {
					wg.Add(1)
					sb, err := sandbox.New(cm, make([]byte, 2), sandbox.Options{})
					if err != nil {
						t.Fatal(err)
					}
					sb.OnComplete = func(*sandbox.Sandbox) { wg.Done() }
					if err := p.Submit(sb); err != nil {
						t.Fatal(err)
					}
				}
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(20 * time.Second):
					t.Fatalf("round %d stalled: a completion waited on the idle poll (stats %+v)", round, p.Stats())
				}
			}
		})
	}
}

// TestQuiesceEventDriven checks both directions of the event-driven wait:
// it times out (returning false) while work is genuinely in flight, and it
// returns promptly once the last sandbox finishes instead of sleeping out a
// poll interval.
func TestQuiesceEventDriven(t *testing.T) {
	cm := compileTestModule(t, spinSrc)
	p := NewPool(Config{Workers: 1, Quantum: time.Millisecond})
	defer p.Stop()
	var wg sync.WaitGroup
	wg.Add(1)
	sb, err := sandbox.New(cm, make([]byte, 5000), sandbox.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var doneAt atomic.Int64
	sb.OnComplete = func(*sandbox.Sandbox) { doneAt.Store(time.Now().UnixNano()); wg.Done() }
	if err := p.Submit(sb); err != nil {
		t.Fatal(err)
	}
	if p.Quiesce(time.Millisecond) {
		t.Error("Quiesce returned true with a sandbox in flight")
	}
	if !p.Quiesce(30 * time.Second) {
		t.Fatal("Quiesce timed out")
	}
	woke := time.Now().UnixNano()
	wg.Wait()
	if lag := time.Duration(woke - doneAt.Load()); lag > 5*time.Second {
		t.Errorf("Quiesce woke %v after completion", lag)
	}
	if !p.Quiesce(time.Millisecond) {
		t.Error("Quiesce on idle pool returned false")
	}
}

// ---- runq ----

func TestRunqFIFOOwner(t *testing.T) {
	q := NewRunq[int](4)
	vals := make([]int, 40) // forces growth
	for i := range vals {
		vals[i] = i
		q.Push(&vals[i])
	}
	if q.Len() != len(vals) {
		t.Errorf("Len = %d", q.Len())
	}
	for i := range vals {
		x, ok := q.Pop()
		if !ok || *x != i {
			t.Fatalf("Pop = %v, %v; want %d", x, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty succeeded")
	}
}

func TestRunqStealBatchTakesHalf(t *testing.T) {
	q := NewRunq[int](16)
	vals := make([]int, 8)
	for i := range vals {
		vals[i] = i
		q.Push(&vals[i])
	}
	dst := make([]*int, 8)
	n := q.StealBatch(dst, 8)
	if n != 4 {
		t.Fatalf("StealBatch took %d of 8, want half", n)
	}
	for i := 0; i < n; i++ {
		if *dst[i] != i {
			t.Errorf("stolen[%d] = %d, want %d (oldest first)", i, *dst[i], i)
		}
	}
	// The remainder pops in order.
	for want := n; want < len(vals); want++ {
		x, ok := q.Pop()
		if !ok || *x != want {
			t.Fatalf("Pop = %v, %v; want %d", x, ok, want)
		}
	}
	// A single element steals whole (half rounded up).
	q.Push(&vals[0])
	if n := q.StealBatch(dst, 8); n != 1 {
		t.Errorf("StealBatch on 1-element queue took %d", n)
	}
}

// TestRunqStealBatchStress is the exactly-once property under -race: one
// owner pushing and popping concurrently with batched thieves, and every
// element consumed exactly once — no loss, no duplication.
func TestRunqStealBatchStress(t *testing.T) {
	const (
		numItems   = 20000
		numThieves = 4
	)
	q := NewRunq[int](8)
	vals := make([]int, numItems)
	consumed := make([]atomic.Int32, numItems)
	var total atomic.Int64

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < numThieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]*int, 16)
			for {
				n := q.StealBatch(dst, len(dst))
				for j := 0; j < n; j++ {
					consumed[*dst[j]].Add(1)
					total.Add(1)
				}
				if n == 0 {
					select {
					case <-stop:
						// One final sweep after the owner finished.
						if q.StealBatch(dst, len(dst)) == 0 {
							return
						}
					default:
					}
				}
			}
		}()
	}
	// Owner: push everything, popping every few pushes like a worker
	// interleaving admission with scheduling.
	for i := 0; i < numItems; i++ {
		vals[i] = i
		q.Push(&vals[i])
		if i%3 == 0 {
			if x, ok := q.Pop(); ok {
				consumed[*x].Add(1)
				total.Add(1)
			}
		}
	}
	for {
		x, ok := q.Pop()
		if !ok {
			break
		}
		consumed[*x].Add(1)
		total.Add(1)
	}
	// Wait for thieves to drain the rest.
	deadline := time.After(10 * time.Second)
	for total.Load() < numItems {
		select {
		case <-deadline:
			t.Fatalf("only %d of %d items consumed", total.Load(), numItems)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	for i := range consumed {
		if n := consumed[i].Load(); n != 1 {
			t.Fatalf("item %d consumed %d times", i, n)
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d after draining", q.Len())
	}
}
