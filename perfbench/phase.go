package main

import (
	"sync"
	"time"

	"llva/internal/serve"
)

// winLog is what one client saw complete in one window of a phase.
type winLog struct {
	lat    []time.Duration // client-observed latency of each correct op
	instrs uint64          // guest instructions retired by their runs
	wallNS int64           // host time of those runs inside Session.Run
	cycles uint64          // simulated cycles of those runs
}

func (w *winLog) merge(o winLog) {
	w.lat = append(w.lat, o.lat...)
	w.instrs += o.instrs
	w.wallNS += o.wallNS
	w.cycles += o.cycles
}

// clientLog is what one client goroutine saw in a phase; it is touched
// only by that goroutine until the phase ends.
type clientLog struct {
	t       tally
	start   time.Time
	winLen  time.Duration
	win     []winLog
	runs    []call // traced phases: each successful /run call
	loads   []call // traced phases: each successful /load call
	refused int
}

// done records an op that completed correctly: it took lat and ended
// in resp's run.
func (lg *clientLog) done(lat time.Duration, resp serve.RunResponse) {
	w := &lg.win[min(int(time.Since(lg.start)/lg.winLen), len(lg.win)-1)]
	w.lat = append(w.lat, lat)
	w.instrs += resp.Instrs
	w.wallNS += resp.WallNS
	w.cycles += resp.Cycles
}

// mark is a process CPU reading at a window boundary.
type mark struct {
	at  time.Time
	cpu time.Duration
}

// phaseResult merges the client logs of one timed phase.
type phaseResult struct {
	clientLog
	use   interval
	marks []mark  // window boundaries, from phase start to phase end
	rssMB float64 // peak RSS at the end of the phase
}

// runPhase runs clients closed-loop clients for d: each sends its next
// op only after the previous one finished. op returns false when the
// client has no more input. The phase is cut into windows of equal
// length for the per-window medians of serveE2E.
func runPhase(clients, windows int, d time.Duration, op func(lane, i int, lg *clientLog) bool) phaseResult {
	u0 := readUsage()
	winLen := d / time.Duration(windows)
	logs := make([]clientLog, clients)
	for c := range logs {
		logs[c] = clientLog{start: u0.wall, winLen: winLen, win: make([]winLog, windows)}
	}
	deadline := u0.wall.Add(d)
	marks := []mark{{u0.wall, u0.cpu}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k < windows; k++ {
			time.Sleep(time.Until(u0.wall.Add(winLen * time.Duration(k))))
			marks = append(marks, mark{time.Now(), processCPU()})
		}
	}()
	for c := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline) && op(c, i, &logs[c]); i++ {
			}
		}()
	}
	wg.Wait()
	rss := rssPeakMB() // before the merging below allocates
	u1 := readUsage()
	r := phaseResult{use: u0.until(u1), marks: append(marks, mark{u1.wall, u1.cpu}), rssMB: rss}
	r.win = make([]winLog, windows)
	for _, lg := range logs {
		r.t.merge(lg.t)
		for k := range lg.win {
			r.win[k].merge(lg.win[k])
		}
		r.runs = append(r.runs, lg.runs...)
		r.loads = append(r.loads, lg.loads...)
		r.refused += lg.refused
	}
	return r
}

// windows cuts a phase of length d into half-second windows. The host's
// speed drifts over seconds; the median of many short windows follows
// its typical speed rather than one slow stretch.
func windows(d time.Duration) int { return max(int(d/(time.Second/2)), 1) }

// samples is the number of latency samples.
func (r *phaseResult) samples() int {
	n := 0
	for _, w := range r.win {
		n += len(w.lat)
	}
	return n
}

// total merges the windows.
func (r *phaseResult) total() winLog {
	var t winLog
	for _, w := range r.win {
		t.merge(w)
	}
	return t
}

// succeeded is the number of ops that completed with a correct result.
func (r *phaseResult) succeeded() int { return r.t.attempted - r.t.failed }

// serveE2E fills the end-to-end metrics every serve workload measures
// the same way: each is computed per window and the median over the
// windows is reported, so load from outside the benchmark in one
// window does not move the result. The 99th percentile is taken per
// window only when every window holds enough samples for ten beyond it,
// and over the whole phase otherwise.
func (r *phaseResult) serveE2E(into map[string]float64) {
	var opsPerS, cpuPerOp, p50, p99, mips []float64
	for k, w := range r.win {
		from, to := r.marks[k], r.marks[k+1]
		n := float64(max(len(w.lat), 1))
		opsPerS = append(opsPerS, float64(len(w.lat))/to.at.Sub(from.at).Seconds())
		cpuPerOp = append(cpuPerOp, ms(to.cpu-from.cpu)/n)
		p50 = append(p50, ms(quantile(w.lat, 0.50)))
		if len(w.lat) >= 1000 {
			p99 = append(p99, ms(quantile(w.lat, 0.99)))
		}
		mips = append(mips, float64(w.instrs)/float64(max(w.wallNS, 1))*1e3)
	}
	if len(p99) < len(r.win) {
		p99 = []float64{ms(quantile(r.total().lat, 0.99))}
	}
	into["ops_per_s"] = medianOf(opsPerS)
	into["cpu_ms_per_op"] = medianOf(cpuPerOp)
	into["latency_p50_ms"] = medianOf(p50)
	into["latency_p99_ms"] = medianOf(p99)
	into["guest_mips"] = medianOf(mips)
	into["ok_ratio"] = float64(r.succeeded()) / float64(max(r.t.attempted, 1))
}

// serveLayers fills the serve.* and machine per-request metrics of a
// traced phase by joining each client span with its handler span.
func (r *phaseResult) serveLayers(spans *spanLog, into map[string]float64) {
	var client, handler, transport, dispatch, queue, exec, load []time.Duration
	for _, c := range r.runs {
		h, ok := spans.handlerTime(c.id)
		if !ok {
			continue
		}
		q, e := time.Duration(c.resp.QueueNS), time.Duration(c.resp.ExecNS)
		client = append(client, c.client)
		handler = append(handler, h)
		transport = append(transport, c.client-h)
		dispatch = append(dispatch, h-q-e)
		queue = append(queue, q)
		exec = append(exec, e)
	}
	for _, c := range r.loads {
		if h, ok := spans.handlerTime(c.id); ok {
			load = append(load, h)
		}
	}
	into["serve.client_us"] = us(median(client))
	into["serve.handler_us"] = us(median(handler))
	into["serve.transport_us"] = us(median(transport))
	into["serve.dispatch_us"] = us(median(dispatch))
	into["serve.queue_us"] = us(median(queue))
	into["serve.exec_us"] = us(median(exec))
	into["serve.load_ms"] = ms(median(load))
	into["serve.refused"] = float64(r.refused)
	t := r.total()
	into["machine.instrs"] = float64(t.instrs) / float64(max(len(t.lat), 1))
	into["machine.ns_per_instr"] = float64(t.wallNS) / float64(max(t.instrs, 1))
}
