package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"llva/internal/interp"
	"llva/internal/llee"
	"llva/internal/minic"
	"llva/internal/passes"
	"llva/internal/target"
	"llva/internal/telemetry"
	"llva/internal/workloads"
)

// shortSuite is the table2 subset -short runs: quick programs only.
var shortSuite = map[string]bool{"anagram": true, "yacr2": true, "vortex": true, "gap": true}

func suite(t *testing.T) []*workloads.Workload {
	var ws []*workloads.Workload
	for _, w := range workloads.All() {
		if !testing.Short() || shortSuite[w.Name] {
			ws = append(ws, w)
		}
	}
	return ws
}

// TestTable2OutputsMatchInterpreter holds the pinned outputs to the
// reference interpreter on the unoptimized modules.
func TestTable2OutputsMatchInterpreter(t *testing.T) {
	if len(table2Outputs) != len(workloads.All()) {
		t.Fatalf("%d pinned outputs for %d workloads", len(table2Outputs), len(workloads.All()))
	}
	for _, w := range suite(t) {
		m, err := w.Compile()
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		ip, err := interp.New(m, &out)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ip.RunMain(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got, want := out.String(), table2Outputs[w.Name]; got != want {
			t.Errorf("%s: interpreter prints %q, pinned %q", w.Name, got, want)
		}
	}
}

// TestTable2MatchesLLVABench checks that table2's deterministic columns
// equal llva-bench -tier2's on the same tree, although table2
// translates the module obj.Decode returns and llva-bench the compiled
// one: both measure one program.
func TestTable2MatchesLLVABench(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "llva-bench")
	if out, err := exec.Command("go", "build", "-o", bin, "llva/cmd/llva-bench").CombinedOutput(); err != nil {
		t.Fatalf("build llva-bench: %v\n%s", err, out)
	}
	for _, w := range suite(t) {
		out, err := exec.Command(bin, "-tier2", "-json", "-workload", w.Name).Output()
		if err != nil {
			t.Fatalf("llva-bench %s: %v", w.Name, err)
		}
		var rows []struct {
			NativeKB    float64 `json:"native_kb"`
			NumX86      int     `json:"vx86_instrs"`
			RunVirtualS float64 `json:"run_virtual_s"`
		}
		if err := json.Unmarshal(out, &rows); err != nil || len(rows) != 1 {
			t.Fatalf("llva-bench %s: %v (%d rows)", w.Name, err, len(rows))
		}
		r, err := runTable2(w, true, telemetry.New(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkTable2(r, nil); err != nil {
			t.Fatal(err)
		}
		want := rows[0]
		if r.vx86Instrs != want.NumX86 || float64(r.nativeBytes) != want.NativeKB*1024 ||
			float64(r.cycles) != math.Round(want.RunVirtualS*1e9) {
			t.Errorf("%s: vx86 %d native %d B cycles %d; llva-bench vx86 %d native %.0f B cycles %.0f",
				w.Name, r.vx86Instrs, r.nativeBytes, r.cycles, want.NumX86, want.NativeKB*1024, want.RunVirtualS*1e9)
		}
	}
}

func TestGenProgramIsSeeded(t *testing.T) {
	gen := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		var b strings.Builder
		for i := 0; i < 20; i++ {
			b.WriteString(genProgram(rng, i))
		}
		return b.String()
	}
	if gen(3) != gen(3) {
		t.Fatal("one seed gave two program streams")
	}
	if gen(3) == gen(4) {
		t.Fatal("two seeds gave one program stream")
	}
}

// TestGenProgramsRun runs generated programs on llee sessions and the
// interpreter: the generator's output is not filtered, so every program
// must compile and run to the interpreter's result.
func TestGenProgramsRun(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 40
	}
	sys := llee.NewSystem()
	defer sys.Close()
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for id := 0; id < n; id++ {
			src := genProgram(rng, id)
			want, err := interpExpect(src, "main")
			if err != nil {
				t.Fatalf("seed %d program %d: %v\n%s", seed, id, err, src)
			}
			m, err := minic.Compile("gen.c", src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := passes.Optimize(m); err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			sess, err := sys.NewSession(m, target.VX86, &out, llee.WithMemSize(serveMemSize))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Run(context.Background(), "main")
			if err != nil || out.String() != want.Out || uint32(res.Value) != want.Value {
				t.Fatalf("seed %d program %d: got %q value %d err %v, want %q value %d\n%s",
					seed, id, out.String(), uint32(res.Value), err, want.Out, want.Value, src)
			}
		}
	}
}

// TestServeRuns runs both serve workloads briefly, untraced and traced,
// and checks the traced run's span file joins client and handler spans
// by request ID.
func TestServeRuns(t *testing.T) {
	in, err := prepareHot(1, expectInProcess)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := prepareCold(1, 200, expectInProcess)
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		for name, load := range map[string]func(cfg config) serveLoad{
			"serve-hot":  func(cfg config) serveLoad { return hotLoad(cfg, in) },
			"serve-cold": func(cfg config) serveLoad { return coldLoad(cfg, progs, coldStaticsInProcess) },
		} {
			cfg := config{workload: name, seed: 1, seconds: time.Second, trace: trace,
				traceOut: filepath.Join(t.TempDir(), "trace.json")}
			rep, err := runServe(cfg, in, load(cfg))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			for _, ta := range []tally{rep.setup, rep.timed, rep.traced} {
				if ta.failed != 0 {
					t.Fatalf("%s trace=%v: %d of %d ops failed", name, trace, ta.failed, ta.attempted)
				}
			}
			if rep.timed.attempted == 0 {
				t.Fatalf("%s trace=%v: no ops", name, trace)
			}
			if trace {
				checkSpanFile(t, cfg.traceOut)
			} else if len(rep.e2e) != len(endToEnd) {
				t.Errorf("%s: %d end-to-end metrics, want %d", name, len(rep.e2e), len(endToEnd))
			}
		}
	}
}

func checkSpanFile(t *testing.T, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	client := make(map[float64]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.PID == pidClient {
			client[ev.Args["req"].(float64)] = true
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.PID == pidServer && client[ev.Args["req"].(float64)] {
			return
		}
	}
	t.Fatalf("%s: no handler span shares a request ID with a client span", path)
}

// TestBenchmarkJSONMatchesLedger keeps BENCHMARK.json and the metrics
// the program prints the same list.
func TestBenchmarkJSONMatchesLedger(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, " "); got != "serve-hot serve-cold table2" {
		t.Errorf("workloads %q", got)
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the ledger", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != m.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, ledger %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd, true)
	same("per_layer", bj.PerLayer, perLayer, false)
}
