package main

import (
	"time"

	"llva/internal/codegen"
	"llva/internal/core"
	"llva/internal/llee/pipeline"
	"llva/internal/minic"
	"llva/internal/passes"
	"llva/internal/target"
)

const (
	staticsTime  = 6 * time.Second // how long moduleStatics repeats
	staticsBatch = 32              // repetitions moduleStatics times together
	coldPasses   = 4               // passes over the programs coldStatics times
)

// coldStaticsFunc measures serve-cold's compile_ms, translate_ms and
// native_code_bytes on the first n programs of seed.
type coldStaticsFunc func(seed int64, n int, into map[string]float64) error

func coldStaticsInProcess(seed int64, n int, into map[string]float64) error {
	return coldStatics(coldSources(seed, n), into)
}

// coldStaticsSubprocess measures in a child perfbench: after the timed
// phase the server retains ~0.3 GB, whose garbage collections would
// land in the timings, and the child's heap is fresh.
func coldStaticsSubprocess(seed int64, n int, into map[string]float64) error {
	var m map[string]float64
	if err := child("--statics", "serve-cold", seed, n, &m); err != nil {
		return err
	}
	for _, name := range []string{"compile_ms", "translate_ms", "native_code_bytes"} {
		into[name] = m[name]
	}
	return nil
}

// coldStatics measures the toolchain on the first generated programs,
// outside the timed phase: compile_ms and translate_ms are means per
// program of each program's fastest of coldPasses passes, which are
// seconds apart, so a slow stretch of the host does not count;
// native_code_bytes is the mean vx86 code size.
func coldStatics(srcs []string, into map[string]float64) error {
	compile := make([]time.Duration, len(srcs))
	translate := make([]time.Duration, len(srcs))
	bytes := 0
	for pass := 0; pass < coldPasses; pass++ {
		for i, src := range srcs {
			c, t, b, err := compileTranslate(src)
			if err != nil {
				return err
			}
			if pass == 0 || c < compile[i] {
				compile[i] = c
			}
			if pass == 0 || t < translate[i] {
				translate[i] = t
			}
			if pass == 0 {
				bytes += b
			}
		}
	}
	var c, t time.Duration
	for i := range srcs {
		c += compile[i]
		t += translate[i]
	}
	n := float64(len(srcs))
	into["compile_ms"] = ms(c) / n
	into["translate_ms"] = ms(t) / n
	into["native_code_bytes"] = float64(bytes) / n
	return nil
}

// moduleStatics measures the toolchain on one module, compiling and
// translating it over and over for staticsTime in batches of
// staticsBatch. Compile and translate times are the median batch's,
// per repetition: a batch spans several garbage collections, so it
// reads the same whether or not one lands in it, and the batches span
// enough seconds that one slow stretch of the host does not set them.
func moduleStatics(src string, into map[string]float64) error {
	var compiles, translates []time.Duration
	bytes := 0
	for start := time.Now(); time.Since(start) < staticsTime; {
		var compile, translate time.Duration
		for i := 0; i < staticsBatch; i++ {
			c, t, n, err := compileTranslate(src)
			if err != nil {
				return err
			}
			compile, translate, bytes = compile+c, translate+t, n
		}
		compiles, translates = append(compiles, compile), append(translates, translate)
	}
	into["compile_ms"] = ms(median(compiles)) / staticsBatch
	into["translate_ms"] = ms(median(translates)) / staticsBatch
	into["native_code_bytes"] = float64(bytes)
	return nil
}

// compileTranslate is what /load does to a program before it can run:
// MiniC compile, verify and O2 (the compile time), then a serial
// whole-module vx86 translation (the translate time and code size).
func compileTranslate(src string) (compile, translate time.Duration, codeBytes int, err error) {
	t0 := time.Now()
	m, err := minic.Compile("prog.c", src)
	if err == nil {
		_, err = passes.Optimize(m)
	}
	if err == nil {
		err = core.Verify(m)
	}
	if err != nil {
		return 0, 0, 0, err
	}
	t1 := time.Now()
	tr, err := codegen.New(target.VX86, m)
	if err != nil {
		return 0, 0, 0, err
	}
	nobj, err := pipeline.TranslateModule(tr, 1, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	return t1.Sub(t0), time.Since(t1), nobj.CodeSize(), nil
}
