package serve

import (
	"context"
	"strconv"
	"testing"
	"time"

	"llva/internal/llee"
)

// plantScanProg is the adversarial pooled-session pair: tenant A's
// entry fills a heap block with a secret; tenant B's entry allocates
// the same block (the reset allocator is deterministic, so it lands on
// the same address) and counts nonzero words. Any survivor from A's
// run shows up in B's return value.
const plantScanProg = `
int plant() {
	int i;
	int *p = malloc(8192);
	for (i = 0; i < 2048; i++) p[i] = 0x5EC2E75E;
	return 1;
}
int scan() {
	int i, n = 0;
	int *p = malloc(8192);
	for (i = 0; i < 2048; i++) if (p[i] != 0) n = n + 1;
	return n;
}
int main() { return 0; }
`

// TestPoolReuseBitIdentical: with one worker, consecutive runs of the
// same module are served by one pooled session — after the cold first
// run every run reports Reused, and value, output and cycle count stay
// bit-identical to the cold run.
func TestPoolReuseBitIdentical(t *testing.T) {
	srv, c, _ := newTestServer(t, Config{Workers: 1})
	mustLoad(t, c, "quick", quickProg)

	var cold RunResponse
	for i := 0; i < 3; i++ {
		resp, err := c.Run(context.Background(), RunRequest{Module: "quick", Tenant: "t"})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if resp.Output != "328350\n" {
			t.Fatalf("run %d: output = %q", i, resp.Output)
		}
		if resp.QueueNS < 0 || resp.ExecNS <= 0 {
			t.Errorf("run %d: latency split queue=%d exec=%d", i, resp.QueueNS, resp.ExecNS)
		}
		if i == 0 {
			if resp.Reused {
				t.Error("first run reports Reused")
			}
			cold = resp
			continue
		}
		if !resp.Reused {
			t.Errorf("run %d not served from the pool", i)
		}
		if resp.Value != cold.Value || resp.Cycles != cold.Cycles || resp.Instrs != cold.Instrs {
			t.Errorf("run %d diverged from cold run: {v=%d c=%d i=%d} vs {v=%d c=%d i=%d}",
				i, resp.Value, resp.Cycles, resp.Instrs, cold.Value, cold.Cycles, cold.Instrs)
		}
	}
	if reuse := srv.tele.CounterValue(MetricSessionReuse); reuse != 2 {
		t.Errorf("session_reuse = %d, want 2", reuse)
	}
	if coldN := srv.tele.CounterValue(MetricSessionCold); coldN != 1 {
		t.Errorf("session_cold = %d, want 1", coldN)
	}
}

// TestPoolCrossTenantIsolation is the end-to-end adversarial gate:
// tenant A plants a secret, tenant B's run is provably served by the
// same pooled session (Reused), and B observes only zeros.
func TestPoolCrossTenantIsolation(t *testing.T) {
	_, c, _ := newTestServer(t, Config{Workers: 1})
	mustLoad(t, c, "adv", plantScanProg)

	a, err := c.Run(context.Background(), RunRequest{Module: "adv", Entry: "plant", Tenant: "A"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != 1 {
		t.Fatalf("plant = %d, want 1", a.Value)
	}
	b, err := c.Run(context.Background(), RunRequest{Module: "adv", Entry: "scan", Tenant: "B"})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Reused {
		t.Fatal("tenant B did not reuse tenant A's session; isolation unexercised")
	}
	if b.Value != 0 {
		t.Fatalf("tenant B read %d secret words from tenant A's run", b.Value)
	}
}

// TestPoolDisabled: PoolSessions < 0 turns pooling off — every run is
// cold and nothing reports Reused.
func TestPoolDisabled(t *testing.T) {
	srv, c, _ := newTestServer(t, Config{Workers: 1, PoolSessions: -1})
	mustLoad(t, c, "quick", quickProg)
	for i := 0; i < 2; i++ {
		resp, err := c.Run(context.Background(), RunRequest{Module: "quick"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Reused {
			t.Errorf("run %d reused with pooling disabled", i)
		}
	}
	if n := srv.tele.CounterValue(MetricSessionReuse); n != 0 {
		t.Errorf("session_reuse = %d with pooling disabled", n)
	}
	if n := srv.tele.CounterValue(MetricSessionCold); n != 2 {
		t.Errorf("session_cold = %d, want 2", n)
	}
}

// TestPoolModuleReplaceEvicts: re-registering a module under the same
// name with different source must orphan the old stamp's pooled
// sessions — the next run executes the new code, cold.
func TestPoolModuleReplaceEvicts(t *testing.T) {
	_, c, _ := newTestServer(t, Config{Workers: 1})
	mustLoad(t, c, "m", quickProg)
	if resp, err := c.Run(context.Background(), RunRequest{Module: "m"}); err != nil || resp.Output != "328350\n" {
		t.Fatalf("v1 run: %v %q", err, resp.Output)
	}
	mustLoad(t, c, "m", `int main() { print_int(7); print_nl(); return 7; }`)
	resp, err := c.Run(context.Background(), RunRequest{Module: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Reused {
		t.Error("run after module replacement reused a stale session")
	}
	if resp.Output != "7\n" || resp.Value != 7 {
		t.Errorf("replaced module ran old code: value=%d output=%q", resp.Value, resp.Output)
	}
}

// poolStamps reports the stamps the pool holds sessions for.
func poolStamps(srv *Server) map[string]int {
	srv.poolMu.Lock()
	defer srv.poolMu.Unlock()
	out := make(map[string]int, len(srv.pool))
	for stamp, lst := range srv.pool {
		out[stamp] = len(lst)
	}
	return out
}

func moduleStates(sys *llee.System) int64 {
	return sys.Telemetry().Gauge(llee.MetricModuleStates).Value()
}

// TestPoolReplacedModuleInFlight: a module replaced while one of its
// runs is in flight stays alive until that run finishes, and then goes
// entirely — the finished session is closed rather than pooled under
// the dead stamp, and the System holds only the replacement's state.
func TestPoolReplacedModuleInFlight(t *testing.T) {
	srv, c, sys := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	v1, err := c.Load(ctx, LoadRequest{Name: "a", Source: slowProg})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(ctx, RunRequest{Module: "a"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, job, stateRunning)
	v2, err := c.Load(ctx, LoadRequest{Name: "a", Source: quickProg})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Stamp == v2.Stamp {
		t.Fatal("sanity: both sources share a stamp")
	}
	if n := moduleStates(sys); n != 2 {
		t.Fatalf("module_states = %d while the old module's run is in flight, want 2", n)
	}
	if err := c.Cancel(ctx, job); err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, job, time.Millisecond); err != nil || st.State != stateFailed {
		t.Fatalf("in-flight run after cancel: %+v %v", st, err)
	}
	if n, ok := poolStamps(srv)[v1.Stamp]; ok {
		t.Fatalf("replaced stamp still has a pool entry (%d sessions)", n)
	}
	if n := moduleStates(sys); n != 1 {
		t.Fatalf("module_states = %d after the old module's last run, want 1", n)
	}
	if ev := sys.Telemetry().CounterValue(llee.MetricModuleEvictions); ev != 1 {
		t.Fatalf("module_evictions = %d, want 1", ev)
	}
	resp, err := c.Run(ctx, RunRequest{Module: "a"})
	if err != nil || resp.Output != "328350\n" {
		t.Fatalf("replacement run: %v %q", err, resp.Output)
	}
}

// TestPoolQueuedRunOfReplacedModule: a job admitted before its module
// was replaced still runs the code it was admitted for, on the offline
// state Load preloaded — the job's reference keeps that state alive, so
// the run neither rebuilds it online nor sees the replacement.
func TestPoolQueuedRunOfReplacedModule(t *testing.T) {
	srv, c, sys := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	mustLoad(t, c, "blocker", slowProg)
	v1, err := c.Load(ctx, LoadRequest{Name: "m", Source: quickProg})
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := c.Submit(ctx, RunRequest{Module: "blocker"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, blocker, stateRunning)
	queued, err := c.Submit(ctx, RunRequest{Module: "m"})
	if err != nil {
		t.Fatal(err)
	}
	mustLoad(t, c, "m", `int main() { print_int(7); print_nl(); return 7; }`)
	if err := c.Cancel(ctx, blocker); err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, queued, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != stateDone || st.Result == nil {
		t.Fatalf("queued run of the replaced module: %+v", st)
	}
	if st.Result.Output != "328350\n" {
		t.Fatalf("queued run executed %q, want the code it was admitted for", st.Result.Output)
	}
	if !st.Result.CacheHit {
		t.Fatal("queued run built an online state instead of using the preloaded one")
	}
	if _, ok := poolStamps(srv)[v1.Stamp]; ok {
		t.Fatal("replaced stamp kept a pool entry after its last run")
	}
	if n := moduleStates(sys); n != 2 {
		t.Fatalf("module_states = %d, want 2 (blocker and the replacement)", n)
	}
}

// TestPoolChurnBounded is the write-path bound: 200 upload+run ops
// rotating over 8 names leave at most 8 module states and 8 pool stamps
// behind, and after the first round every session runs on an address
// space recycled from the module it replaced. Counts, not heap sizes:
// the bound holds whatever the host.
func TestPoolChurnBounded(t *testing.T) {
	const ops, names = 200, 8
	srv, c, sys := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	for i := 0; i < ops; i++ {
		name := "churn" + strconv.Itoa(i%names)
		src := "int main() { print_int(" + strconv.Itoa(i) + "); print_nl(); return 0; }"
		mustLoad(t, c, name, src)
		resp, err := c.Run(ctx, RunRequest{Module: name})
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if want := strconv.Itoa(i) + "\n"; resp.Output != want {
			t.Fatalf("op %d: output %q, want %q", i, resp.Output, want)
		}
	}
	if n := moduleStates(sys); n > names {
		t.Errorf("module_states = %d after churn, want <= %d", n, names)
	}
	if n := len(poolStamps(srv)); n > names {
		t.Errorf("pool holds %d stamps after churn, want <= %d", n, names)
	}
	if n := sys.Telemetry().CounterValue(llee.MetricSessionRecycled); n < ops-10 {
		t.Errorf("session.recycled = %d, want >= %d", n, ops-10)
	}
	if n := sys.Telemetry().CounterValue(llee.MetricModuleEvictions); n != ops-names {
		t.Errorf("module_evictions = %d, want %d", n, ops-names)
	}
}
