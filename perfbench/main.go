// Command perfbench is the repository's benchmark. It measures three
// workloads, one per kind of traffic the system serves, checks every
// result against the reference interpreter or pinned outputs, and
// prints one JSON result line last:
//
//	serve-hot   tenants calling one preloaded module over HTTP
//	serve-cold  a tenant uploading fresh programs and running each once
//	table2      the paper's toolchain on the 17 Table 2 programs
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer ledger and writes the spans as Chrome trace JSON
// to .bench_build/perfbench-trace-NAME.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	traceOut string
}

// report is what a workload measured.
type report struct {
	e2e, layers          map[string]float64
	setup, timed, traced tally
	samples              int // latency samples of the timed phase
}

func newReport() *report {
	return &report{e2e: make(map[string]float64), layers: make(map[string]float64)}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "serve-hot, serve-cold or table2")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	count := flag.Int("count", 0, "with --oracle or --statics: how many inputs")
	oracleMode := flag.Bool("oracle", false, "print the workload's expected results as JSON and exit (used by the benchmark itself)")
	staticsMode := flag.Bool("statics", false, "print serve-cold's toolchain metrics over --count programs as JSON and exit (used by the benchmark itself)")
	flag.Parse()
	if *staticsMode {
		m := make(map[string]float64)
		err := fmt.Errorf("no statics for workload %q", cfg.workload)
		if cfg.workload == "serve-cold" {
			err = coldStaticsInProcess(cfg.seed, *count, m)
		}
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(m)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench statics:", err)
			return 1
		}
		return 0
	}
	if *oracleMode {
		want, err := expectInProcess(cfg.workload, cfg.seed, *count)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(want)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench oracle:", err)
			return 1
		}
		return 0
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.traceOut = filepath.Join(".bench_build", "perfbench-trace-"+cfg.workload+".json")
	if cfg.trace {
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}

	var rep *report
	var err error
	switch cfg.workload {
	case "serve-hot":
		var in *hotInputs
		if in, err = prepareHot(cfg.seed, expectSubprocess); err == nil {
			rep, err = runServe(cfg, in, hotLoad(cfg, in))
		}
	case "serve-cold":
		var in *hotInputs
		var progs []coldProg
		if in, err = prepareHot(cfg.seed, expectSubprocess); err == nil {
			if progs, err = prepareCold(cfg.seed, coldPerSec*seconds, expectSubprocess); err == nil {
				rep, err = runServe(cfg, in, coldLoad(cfg, progs, coldStaticsSubprocess))
			}
		}
	case "table2":
		rep, err = runTable2Workload(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	res := result{Metrics: make(map[string]metricValue)}
	for _, ph := range []struct {
		name string
		t    tally
	}{{"setup", rep.setup}, {"timed", rep.timed}, {"traced", rep.traced}} {
		fmt.Printf("%-6s attempted %d succeeded %d failed %d\n", ph.name, ph.t.attempted, ph.t.attempted-ph.t.failed, ph.t.failed)
		res.Attempted += ph.t.attempted
		res.Failed += ph.t.failed
	}
	res.Correct = res.Failed == 0
	if cfg.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{rep.layers[m.name], m.unit}
			fmt.Printf("%-32s %14.4f %-6s moves %s\n", m.name, rep.layers[m.name], m.unit, m.moves)
		}
		fmt.Printf("spans written to %s\n", cfg.traceOut)
	} else {
		for _, m := range endToEnd {
			v, ok := rep.e2e[m.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", cfg.workload, m.name)
				return 1
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
			fmt.Printf("%-18s %16.4f %s\n", m.name, v, m.unit)
		}
		fmt.Printf("latency samples %d\n", rep.samples)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
