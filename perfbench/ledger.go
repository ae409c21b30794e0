package main

import "llva/internal/workloads"

// metricDef is one metric of BENCHMARK.json. For a per-layer metric,
// moves names the end-to-end metrics and workloads it should move: the
// ledger a change that claims a gain is read against.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	moves              string  // per-layer only
}

// endToEnd are the metrics of an untraced run (--trace 0). Every
// workload reports every one; README.md says what each means there.
// The bounds are as wide as the host allows: its speed drifts by about
// 15% over seconds, so the time metrics spread by up to about 15% run
// to run; the counts of table2 and serve-hot repeat exactly, while
// serve-cold's vary by a few percent with the seed's programs.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "ok_ratio", unit: "ratio", better: "higher", bound: 0.01},
	{name: "rss_peak_mb", unit: "MB", better: "lower", bound: 0.2},
	{name: "guest_mips", unit: "MIPS", better: "higher", bound: 0.25},
	{name: "sim_cycles", unit: "count", better: "lower", bound: 0.1},
	{name: "native_code_bytes", unit: "bytes", better: "lower", bound: 0.1},
	{name: "compile_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "translate_ms", unit: "ms", better: "lower", bound: 0.25},
}

// perLayer are the metrics of a traced run (--trace 1). A layer a
// workload does not reach reports 0.
var perLayer = append([]metricDef{
	{name: "serve.client_us", unit: "us", better: "lower", moves: "latency_p50_ms on serve-hot: transport plus handler"},
	{name: "serve.handler_us", unit: "us", better: "lower", moves: "latency_p50_ms on serve-hot: dispatch, queue and exec"},
	{name: "serve.transport_us", unit: "us", better: "lower", moves: "cpu_ms_per_op and ops_per_s on serve-hot; no change on table2"},
	{name: "serve.dispatch_us", unit: "us", better: "lower", moves: "cpu_ms_per_op on serve-hot"},
	{name: "serve.queue_us", unit: "us", better: "lower", moves: "latency_p99_ms and latency_p50_ms on serve-hot"},
	{name: "serve.exec_us", unit: "us", better: "lower", moves: "latency_p99_ms and latency_p50_ms on serve-hot"},
	{name: "serve.load_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on serve-cold"},
	{name: "serve.reuse_ratio", unit: "ratio", better: "higher", moves: "cpu_ms_per_op on serve-hot; about 1 there and about 0 on serve-cold"},
	{name: "serve.refused", unit: "count", better: "lower", moves: "ok_ratio on serve-hot and serve-cold"},
	{name: "llee.preload_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on serve-cold"},
	{name: "llee.new_session_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on serve-cold"},
	{name: "llee.reset_us", unit: "us", better: "lower", moves: "cpu_ms_per_op on serve-hot"},
	{name: "llee.run_us", unit: "us", better: "lower", moves: "cpu_ms_per_op on serve-hot"},
	{name: "llee.reset_dirty_pages", unit: "pages", better: "lower", moves: "cpu_ms_per_op on serve-hot"},
	{name: "minic.compile_ms", unit: "ms", better: "lower", moves: "compile_ms on table2 and latency_p50_ms on serve-cold; flat on serve-hot"},
	{name: "minic.lines_per_s", unit: "1/s", better: "higher", moves: "compile_ms on table2 and latency_p50_ms on serve-cold; flat on serve-hot"},
	{name: "core.verify_ms", unit: "ms", better: "lower", moves: "compile_ms on table2 and latency_p50_ms on serve-cold; flat on serve-hot"},
	{name: "passes.optimize_ms", unit: "ms", better: "lower", moves: "compile_ms on table2 and latency_p50_ms on serve-cold; flat on serve-hot"},
	{name: "obj.encode_ms", unit: "ms", better: "lower", moves: "compile_ms on table2 and latency_p50_ms on serve-cold; flat on serve-hot"},
	{name: "obj.decode_ms", unit: "ms", better: "lower", moves: "compile_ms on table2 and latency_p50_ms on serve-cold; flat on serve-hot"},
	{name: "passes.ir_instrs", unit: "count", better: "lower", moves: "translate_ms and sim_cycles on table2"},
	{name: "obj.bytes", unit: "bytes", better: "lower", moves: "translate_ms and sim_cycles on table2"},
	{name: "codegen.translate_ms", unit: "ms", better: "lower", moves: "translate_ms, sim_cycles and native_code_bytes on table2, latency_p50_ms on serve-cold"},
	{name: "codegen.tier2_translate_ms", unit: "ms", better: "lower", moves: "translate_ms, sim_cycles and native_code_bytes on table2, latency_p50_ms on serve-cold"},
	{name: "codegen.native_instrs", unit: "count", better: "lower", moves: "translate_ms, sim_cycles and native_code_bytes on table2, latency_p50_ms on serve-cold"},
	{name: "codegen.spills", unit: "count", better: "lower", moves: "translate_ms, sim_cycles and native_code_bytes on table2, latency_p50_ms on serve-cold"},
	{name: "codegen.reloads", unit: "count", better: "lower", moves: "translate_ms, sim_cycles and native_code_bytes on table2, latency_p50_ms on serve-cold"},
	{name: "codegen.regalloc_ms", unit: "ms", better: "lower", moves: "translate_ms, sim_cycles and native_code_bytes on table2, latency_p50_ms on serve-cold"},
	{name: "machine.instrs", unit: "count", better: "lower", moves: "guest_mips and sim_cycles on table2; about 15% of cpu_ms_per_op on serve-hot"},
	{name: "machine.ns_per_instr", unit: "ns", better: "lower", moves: "guest_mips and sim_cycles on table2; about 15% of cpu_ms_per_op on serve-hot"},
	{name: "machine.block_builds", unit: "count", better: "lower", moves: "guest_mips and sim_cycles on table2; about 15% of cpu_ms_per_op on serve-hot"},
	{name: "machine.block_chains", unit: "count", better: "higher", moves: "guest_mips and sim_cycles on table2; about 15% of cpu_ms_per_op on serve-hot"},
	{name: "machine.load_ms", unit: "ms", better: "lower", moves: "guest_mips and sim_cycles on table2; about 15% of cpu_ms_per_op on serve-hot"},
	{name: "go.gc_cycles", unit: "count", better: "lower", moves: "latency_p99_ms and rss_peak_mb on serve-cold, cpu_ms_per_op on serve-hot"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower", moves: "latency_p99_ms and rss_peak_mb on serve-cold, cpu_ms_per_op on serve-hot"},
	{name: "go.allocs_per_op", unit: "count", better: "lower", moves: "latency_p99_ms and rss_peak_mb on serve-cold, cpu_ms_per_op on serve-hot"},
	{name: "go.heap_inuse_mb", unit: "MB", better: "lower", moves: "latency_p99_ms and rss_peak_mb on serve-cold, cpu_ms_per_op on serve-hot"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", moves: "none: traced minus untraced cpu_ms_per_op of the same workload"},
}, cycleRows()...)

// cycleRows are the deterministic per-program rows of table2: the
// tier-2 run's simulated cycles of each workload.
func cycleRows() []metricDef {
	var rows []metricDef
	for _, w := range workloads.All() {
		rows = append(rows, metricDef{name: "machine.cycles." + w.Name, unit: "count", better: "lower",
			moves: "sim_cycles and guest_mips on table2"})
	}
	return rows
}
