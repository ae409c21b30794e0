package main

import (
	"bytes"
	"context"
	"io"
	"time"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/llee"
	"llva/internal/llee/pipeline"
	"llva/internal/machine"
	"llva/internal/mem"
	"llva/internal/prof"
	"llva/internal/rt"
	"llva/internal/target"
	"llva/internal/telemetry"
	"llva/internal/workloads"
)

// layerProg is one module a traced serve run drives through the layers
// directly, with the entry calls it makes and their expected results.
type layerProg struct {
	src, entry string
	args       [][]uint64
	want       []expected
}

// driveLayers calls each layer's public functions on progs the way the
// server does on /load and /run, but from the benchmark, so each call
// gets its own span and timing: minic, core, passes and obj on the way
// in; codegen and machine load on the module; then llee Preload,
// NewSession, Session.Reset and Session.Run on one System. Every run is
// checked against its expected result. Times are per module, except
// reset and run, which are medians per call.
func driveLayers(progs []layerProg, tr *prof.Tracer, into map[string]float64) (tally, error) {
	var t tally
	var st t2Stages
	var preload, newSession time.Duration
	var resets, runs []time.Duration
	lines, irInstrs, objBytes, nativeInstrs := 0, 0, 0, 0
	cgReg, lleeReg := telemetry.New(), telemetry.New()
	sys := llee.NewSystem(llee.WithTelemetry(lleeReg))
	defer sys.Close()
	s := &steps{tr: tr, pid: pidLayers}
	for _, p := range progs {
		m, enc, _ := frontEnd(s, "prog", p.src, &st)
		var nobj *codegen.NativeObject
		s.do("codegen", "pipeline.TranslateModule vx86", &st.translate, func() error {
			tr, err := codegen.New(target.VX86, m)
			if err == nil {
				tr.SetTelemetry(cgReg)
				nobj, err = pipeline.TranslateModule(tr, 1, nil)
			}
			return err
		})
		s.do("machine", "machine.LoadObject", &st.load, func() error {
			mc, err := machine.New(target.VX86, m, rt.NewEnv(mem.New(serveMemSize, true), io.Discard))
			if err == nil {
				err = mc.LoadObject(nobj)
			}
			return err
		})
		s.do("llee", "llee.System.Preload", &preload, func() error { return sys.Preload(m, target.VX86) })
		if s.err != nil {
			t.add(false)
			return t, s.err
		}
		lines += (&workloads.Workload{Source: p.src}).LOC()
		irInstrs += countInstrs(m)
		objBytes += len(enc)
		nativeInstrs += nobj.NumInstrs()

		var out bytes.Buffer
		var sess *llee.Session
		s.do("llee", "llee.System.NewSession", &newSession, func() (err error) {
			sess, err = sys.NewSession(m, target.VX86, &out, llee.WithReuse(true),
				llee.WithMemSize(serveMemSize), llee.WithGas(serveGas))
			return err
		})
		if s.err != nil {
			t.add(false)
			return t, s.err
		}
		// A module called once is called twice, so every module also
		// measures a reset.
		calls := len(p.args)
		if calls == 1 {
			calls = 2
		}
		for i := 0; i < calls; i++ {
			args, want := p.args[i%len(p.args)], p.want[i%len(p.want)]
			out.Reset()
			if i > 0 {
				var d time.Duration
				s.do("llee", "llee.Session.Reset", &d, func() error { return sess.Reset(&out, serveGas, "") })
				resets = append(resets, d)
			}
			var d time.Duration
			var res llee.Result
			s.do("llee", "llee.Session.Run", &d, func() (err error) {
				res, err = sess.Run(context.Background(), p.entry, args...)
				return err
			})
			runs = append(runs, d)
			if s.err == nil {
				s.err = want.check(out.String(), res.Value)
			}
			t.add(s.err == nil)
			if s.err != nil {
				return t, s.err
			}
		}
	}
	n := float64(len(progs))
	into["minic.compile_ms"] = ms(st.compile) / n
	into["minic.lines_per_s"] = float64(lines) / st.compile.Seconds()
	into["core.verify_ms"] = ms(st.verify) / n
	into["passes.optimize_ms"] = ms(st.optimize) / n
	into["obj.encode_ms"] = ms(st.encode) / n
	into["obj.decode_ms"] = ms(st.decode) / n
	into["passes.ir_instrs"] = float64(irInstrs) / n
	into["obj.bytes"] = float64(objBytes) / n
	into["codegen.translate_ms"] = ms(st.translate) / n
	into["codegen.native_instrs"] = float64(nativeInstrs) / n
	into["codegen.spills"] = float64(cgReg.CounterValue(codegen.MetricSpills)) / n
	into["codegen.reloads"] = float64(cgReg.CounterValue(codegen.MetricReloads)) / n
	into["codegen.regalloc_ms"] = float64(cgReg.Histogram(codegen.MetricRegallocNS).Sum()) / 1e6 / n
	into["machine.load_ms"] = ms(st.load) / n
	into["llee.preload_ms"] = ms(preload) / n
	into["llee.new_session_ms"] = ms(newSession) / n
	into["llee.reset_us"] = us(median(resets))
	into["llee.run_us"] = us(median(runs))
	dirty := lleeReg.Histogram(llee.MetricResetDirtyPages)
	into["llee.reset_dirty_pages"] = float64(dirty.Sum()) / float64(max(dirty.Count(), 1))
	return t, nil
}

func countInstrs(m *core.Module) int {
	n := 0
	for _, f := range m.Functions {
		n += f.NumInstructions()
	}
	return n
}
