package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/llee/pipeline"
	"llva/internal/machine"
	"llva/internal/mem"
	"llva/internal/minic"
	"llva/internal/obj"
	"llva/internal/passes"
	"llva/internal/prof"
	"llva/internal/rt"
	"llva/internal/target"
	"llva/internal/telemetry"
	"llva/internal/workloads"
)

// table2ProfRate is llva-bench's sampling period for the tier-1 profile
// run; the tier-2 code (and so every deterministic column) depends on it.
const table2ProfRate = 25

// table2Workers translates serially, the paper's JIT-time setup: the
// timing is then one thread's work, independent of the host's CPU count.
const table2Workers = 1

// table2SetupReps is how often set-up runs.
const table2SetupReps = 21

// table2Outputs pins each workload's program output. The benchmark's own
// test checks every entry against the reference interpreter.
var table2Outputs = map[string]string{
	"anagram": "85 30 6 765442\n",
	"ks":      "788 527 261\n",
	"ft":      "2969 7758\n",
	"yacr2":   "20 0 1254\n",
	"bc":      "4969273 2636800 3517\n",
	"art":     "16 2 88\n15.6163\n",
	"equake":  "45.1752\n2.4718\n3580\n",
	"mcf":     "17 4223\n",
	"bzip2":   "4096 2357 765486\n",
	"gzip":    "8192 893 305\n",
	"parser":  "400 350 50\n",
	"ammp":    "-382.7685\n7.7629\n",
	"vpr":     "1712 1101 152 872\n",
	"twolf":   "4921 3761 132\n",
	"crafty":  "5 10 176054 739113\n",
	"vortex":  "1714 474 303 108 18958\n",
	"gap":     "66 1053\n15 249\n24 440\n",
}

// t2Stages is the host time one table2 op spent in each layer call.
type t2Stages struct {
	compile, verify, optimize, encode, decode time.Duration
	vsparc, translate, tier2Translate         time.Duration
	load, run                                 time.Duration
}

// add sums o's stage times and counts into r.
func (r *t2Result) add(o *t2Result) {
	r.stages.add(&o.stages)
	r.lines += o.lines
	r.irInstrs += o.irInstrs
	r.objBytes += o.objBytes
	r.nativeBytes += o.nativeBytes
	r.vx86Instrs += o.vx86Instrs
	r.cycles += o.cycles
	r.instrs += o.instrs
	r.blockBuilds += o.blockBuilds
	r.blockChains += o.blockChains
}

func (s *t2Stages) add(o *t2Stages) {
	s.compile += o.compile
	s.verify += o.verify
	s.optimize += o.optimize
	s.encode += o.encode
	s.decode += o.decode
	s.vsparc += o.vsparc
	s.translate += o.translate
	s.tier2Translate += o.tier2Translate
	s.load += o.load
	s.run += o.run
}

// t2Result is one program pushed through the whole toolchain.
type t2Result struct {
	name   string
	lines  int
	stages t2Stages

	irInstrs    int    // LLVA instructions after O2
	objBytes    int    // virtual object code size
	nativeBytes int    // vsparc whole-module code size (Table 2 native column)
	vx86Instrs  int    // tier-2 vx86 instructions (Table 2 #vx86 column)
	cycles      uint64 // tier-2 run's simulated cycles
	instrs      uint64 // instructions retired by both runs
	blockBuilds uint64
	blockChains uint64
	out1, out2  string
}

// runTable2 pushes one workload through llva-bench -tier2's
// deterministic path, with an obj.Encode/Decode round trip in front of
// translation: compile, verify, optimize, encode, decode, vsparc and
// vx86 tier-1 translate, then, when run is set, the profiled tier-1
// run, tier-2 translate and tier-2 run. reg receives the translators'
// counters; tr, when non-nil, receives one span per layer call, nested
// under one span for the op.
func runTable2(w *workloads.Workload, run bool, reg *telemetry.Registry, tr *prof.Tracer) (*t2Result, error) {
	r := &t2Result{name: w.Name, lines: w.LOC()}
	st := &r.stages
	if tr != nil {
		defer tr.Begin(pidTable2, 0, "op", w.Name, nil)()
	}
	err := func() error {
		s := &steps{tr: tr, pid: pidTable2}
		opt, enc, m := frontEnd(s, w.Name, w.Source, st)
		if s.err != nil {
			return s.err
		}
		r.irInstrs, r.objBytes = countInstrs(opt), len(enc)
		var objS, objX *codegen.NativeObject
		var trX *codegen.Translator
		s.do("codegen", "pipeline.TranslateModule vsparc", &st.vsparc, func() error {
			trS, err := codegen.New(target.VSPARC, m)
			if err == nil {
				objS, err = pipeline.TranslateModule(trS, table2Workers, nil)
			}
			return err
		})
		s.do("codegen", "pipeline.TranslateModule vx86", &st.translate, func() (err error) {
			if trX, err = codegen.New(target.VX86, m); err == nil {
				trX.SetTelemetry(reg)
				objX, err = pipeline.TranslateModule(trX, table2Workers, nil)
			}
			return err
		})
		if s.err != nil || !run {
			return s.err
		}
		r.nativeBytes = objS.CodeSize()
		var out1, out2 bytes.Buffer
		p := prof.NewProfiler(table2ProfRate)
		if _, err := runTable2Machine(m, objX, &out1, p, r, tr); err != nil {
			return fmt.Errorf("tier-1 run: %w", err)
		}
		s.do("codegen", "pipeline.TranslateModule vx86 tier2", &st.tier2Translate, func() (err error) {
			objX, err = pipeline.TranslateModule(trX.WithTier2(p.Artifact(m.Name, target.VX86.Name)), table2Workers, nil)
			return err
		})
		if s.err != nil {
			return s.err
		}
		r.vx86Instrs = objX.NumInstrs()
		cycles, err := runTable2Machine(m, objX, &out2, nil, r, tr)
		if err != nil {
			return fmt.Errorf("tier-2 run: %w", err)
		}
		r.cycles = cycles
		r.out1, r.out2 = out1.String(), out2.String()
		return nil
	}()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return r, nil
}

// frontEnd compiles, verifies, optimizes, verifies again, encodes and
// decodes src, timing each call into st. It returns the optimized
// module, its object code and the module decoded from it.
func frontEnd(s *steps, name, src string, st *t2Stages) (opt *core.Module, enc []byte, dec *core.Module) {
	s.do("minic", "minic.Compile", &st.compile, func() (err error) {
		opt, err = minic.Compile(name+".c", src)
		return err
	})
	s.do("core", "core.Verify", &st.verify, func() error { return core.Verify(opt) })
	s.do("passes", "passes.Optimize", &st.optimize, func() error {
		_, err := passes.Optimize(opt)
		return err
	})
	s.do("core", "core.Verify", &st.verify, func() error { return core.Verify(opt) })
	s.do("obj", "obj.Encode", &st.encode, func() (err error) {
		enc, err = obj.Encode(opt)
		return err
	})
	s.do("obj", "obj.Decode", &st.decode, func() (err error) {
		dec, err = obj.Decode(enc)
		return err
	})
	return opt, enc, dec
}

// runTable2Machine loads a translated object into a fresh simulated
// vx86 processor and runs main, accounting load and run time separately.
func runTable2Machine(m *core.Module, nobj *codegen.NativeObject, out *bytes.Buffer, p *prof.Profiler, r *t2Result, tr *prof.Tracer) (uint64, error) {
	var mc *machine.Machine
	if err := timed(tr, pidTable2, 0, "machine", "machine.LoadObject", &r.stages.load, func() (err error) {
		mc, err = machine.New(target.VX86, m, rt.NewEnv(mem.New(0, true), out))
		if err != nil {
			return err
		}
		if p != nil {
			mc.SetProfiler(p)
		}
		return mc.LoadObject(nobj)
	}); err != nil {
		return 0, err
	}
	if err := timed(tr, pidTable2, 0, "machine", "machine.Run", &r.stages.run, func() error {
		_, err := mc.Run("main")
		var ee *rt.ExitError
		if errors.As(err, &ee) {
			return nil
		}
		return err
	}); err != nil {
		return 0, err
	}
	r.instrs += mc.Stats.Instrs
	r.blockBuilds += mc.Stats.BlockBuilds
	r.blockChains += mc.Stats.BlockChains
	return mc.Stats.Cycles, nil
}

// t2Phase is one or more whole suite passes.
type t2Phase struct {
	use   interval
	rssMB float64 // peak RSS at the end of the phase
	t     tally
	lat   []time.Duration // per op
	// passLat is each pass's mean op latency. The 17 programs differ
	// 100-fold in cost, so the median of single ops is one ~0.3 s op
	// of whichever program ranks ninth and follows the host's speed in
	// that instant; a pass mean spans the whole pass.
	passLat []time.Duration
	passes  int
	sum     t2Result             // stage times and counts summed over all ops
	first   map[string]*t2Result // each program's first result
}

// table2Phase runs whole suite passes, each in a seeded order: at least
// one, and another only while one more pass as long as the last fits in
// d. Each op must print the pinned output on both tiers and repeat its
// first pass's deterministic columns.
func table2Phase(rng *rand.Rand, d time.Duration, reg *telemetry.Registry, tr *prof.Tracer) t2Phase {
	ph := t2Phase{first: make(map[string]*t2Result)}
	u0 := readUsage()
	deadline := u0.wall.Add(d)
	for last := time.Duration(0); ph.passes == 0 || time.Now().Add(last).Before(deadline); ph.passes++ {
		passStart := time.Now()
		var passSum time.Duration
		passOK := 0
		suite := workloads.All()
		rng.Shuffle(len(suite), func(i, j int) { suite[i], suite[j] = suite[j], suite[i] })
		for _, w := range suite {
			t0 := time.Now()
			r, err := runTable2(w, true, reg, tr)
			lat := time.Since(t0)
			if err == nil {
				err = checkTable2(r, ph.first[w.Name])
			}
			ph.t.add(err == nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "table2: %v\n", err)
				continue
			}
			if ph.first[w.Name] == nil {
				ph.first[w.Name] = r
			}
			ph.lat = append(ph.lat, lat)
			passSum += lat
			passOK++
			ph.sum.add(r)
			fmt.Printf("op %-8s %9.1f ms\n", w.Name, ms(lat))
		}
		last = time.Since(passStart)
		if passOK > 0 {
			ph.passLat = append(ph.passLat, passSum/time.Duration(passOK))
		}
	}
	ph.rssMB = rssPeakMB()
	ph.use = u0.until(readUsage())
	return ph
}

// checkTable2 holds an op to the pinned output, tier 2 to tier 1, and
// the deterministic columns to the program's first result.
func checkTable2(r, first *t2Result) error {
	if want := table2Outputs[r.name]; r.out1 != want || r.out2 != want {
		return fmt.Errorf("%s: tier-1 output %q, tier-2 output %q, want %q", r.name, r.out1, r.out2, want)
	}
	if first != nil && (r.cycles != first.cycles || r.vx86Instrs != first.vx86Instrs || r.nativeBytes != first.nativeBytes) {
		return fmt.Errorf("%s: cycles/vx86/native %d/%d/%d, first pass %d/%d/%d", r.name,
			r.cycles, r.vx86Instrs, r.nativeBytes, first.cycles, first.vx86Instrs, first.nativeBytes)
	}
	return nil
}

func runTable2Workload(cfg config) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(cfg.seed))
	if cfg.trace {
		half := cfg.seconds / 2
		ref := table2Phase(rng, half, telemetry.New(), nil)
		rep.timed = ref.t
		ref.use.goMetrics(ref.succeeded(), rep.layers)
		spans := newSpanLog()
		reg := telemetry.New()
		ph := table2Phase(rng, half, reg, spans.t)
		rep.traced = ph.t
		ph.layers(reg, rep.layers)
		rep.layers["trace.overhead_pct"] = 100 * (ph.use.cpuMSPerOp(ph.succeeded())/ref.use.cpuMSPerOp(ref.succeeded()) - 1)
		return rep, spans.write(cfg.traceOut)
	}

	// Set-up: the suite compiled and translated without running, so
	// lazy state is built before timing, table2SetupReps times. setup_s
	// is the median set-up; compile_ms and translate_ms sum each
	// program's fastest compile and translation over the repetitions,
	// which span seconds, so a slow stretch of the host does not count.
	var setups []time.Duration
	compile := make(map[string]time.Duration)
	translate := make(map[string]time.Duration)
	for i := 0; i < table2SetupReps; i++ {
		t0 := time.Now()
		for _, w := range workloads.All() {
			r, err := runTable2(w, false, telemetry.New(), nil)
			rep.setup.add(err == nil)
			if err != nil {
				return nil, err
			}
			c := r.stages.compile + r.stages.verify + r.stages.optimize
			if old, ok := compile[w.Name]; !ok || c < old {
				compile[w.Name] = c
			}
			if old, ok := translate[w.Name]; !ok || r.stages.translate < old {
				translate[w.Name] = r.stages.translate
			}
		}
		setups = append(setups, time.Since(t0))
	}
	var compileSum, translateSum time.Duration
	for name := range compile {
		compileSum += compile[name]
		translateSum += translate[name]
	}
	ph := table2Phase(rng, cfg.seconds, telemetry.New(), nil)
	rep.timed = ph.t
	rep.samples = len(ph.lat)
	ok := ph.succeeded()
	e := rep.e2e
	e["setup_s"] = median(setups).Seconds()
	e["rss_peak_mb"] = ph.rssMB
	e["ops_per_s"] = float64(ok) / ph.use.wall.Seconds()
	e["latency_p50_ms"] = ms(median(ph.passLat))
	e["latency_p99_ms"] = ms(quantile(ph.lat, 0.99))
	e["cpu_ms_per_op"] = ph.use.cpuMSPerOp(ok)
	e["ok_ratio"] = float64(ok) / float64(max(ph.t.attempted, 1))
	e["guest_mips"] = float64(ph.sum.instrs) / us(ph.sum.stages.run)
	e["compile_ms"] = ms(compileSum)
	e["translate_ms"] = ms(translateSum)
	var cycles, native uint64
	for _, r := range ph.first {
		cycles += r.cycles
		native += uint64(r.nativeBytes)
	}
	e["sim_cycles"] = float64(cycles)
	e["native_code_bytes"] = float64(native)
	return rep, nil
}

func (ph *t2Phase) succeeded() int { return ph.t.attempted - ph.t.failed }

// layers fills table2's per-layer metrics, per suite pass.
func (ph *t2Phase) layers(reg *telemetry.Registry, into map[string]float64) {
	s, n := &ph.sum.stages, float64(ph.passes)
	into["minic.compile_ms"] = ms(s.compile) / n
	into["minic.lines_per_s"] = float64(ph.sum.lines) / s.compile.Seconds()
	into["core.verify_ms"] = ms(s.verify) / n
	into["passes.optimize_ms"] = ms(s.optimize) / n
	into["obj.encode_ms"] = ms(s.encode) / n
	into["obj.decode_ms"] = ms(s.decode) / n
	into["passes.ir_instrs"] = float64(ph.sum.irInstrs) / n
	into["obj.bytes"] = float64(ph.sum.objBytes) / n
	into["codegen.translate_ms"] = ms(s.translate) / n
	into["codegen.tier2_translate_ms"] = ms(s.tier2Translate) / n
	into["codegen.native_instrs"] = float64(ph.sum.vx86Instrs) / n
	into["codegen.spills"] = float64(reg.CounterValue(codegen.MetricSpills)) / n
	into["codegen.reloads"] = float64(reg.CounterValue(codegen.MetricReloads)) / n
	into["codegen.regalloc_ms"] = float64(reg.Histogram(codegen.MetricRegallocNS).Sum()) / 1e6 / n
	into["machine.instrs"] = float64(ph.sum.instrs) / n
	into["machine.ns_per_instr"] = float64(s.run.Nanoseconds()) / float64(ph.sum.instrs)
	into["machine.block_builds"] = float64(ph.sum.blockBuilds) / n
	into["machine.block_chains"] = float64(ph.sum.blockChains) / n
	into["machine.load_ms"] = ms(s.load) / n
	for name, r := range ph.first {
		into["machine.cycles."+name] = float64(r.cycles)
	}
}
