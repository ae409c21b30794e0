package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"llva/internal/serve"
)

const (
	coldNames   = 8   // module names the uploads rotate over
	coldPerSec  = 140 // programs generated per second of run, above the op rate
	coldLayers  = 32  // modules the traced run drives through the layers
	coldStaticN = 256 // programs compile_ms, translate_ms and native_code_bytes average over
)

// coldProg is one generated upload with the interpreter's result.
type coldProg struct {
	src  string
	want expected
}

// prepareCold generates n programs from seed, with their expected results.
func prepareCold(seed int64, n int, expect oracle) ([]coldProg, error) {
	want, err := expect("serve-cold", seed, n)
	if err != nil {
		return nil, err
	}
	progs := make([]coldProg, n)
	for i, src := range coldSources(seed, n) {
		progs[i] = coldProg{src: src, want: want[i]}
	}
	return progs, nil
}

// coldSources is the program stream of seed.
func coldSources(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	srcs := make([]string, n)
	for i := range srcs {
		srcs[i] = genProgram(rng, i)
	}
	return srcs
}

// coldLoad is the serve-cold traffic: one client uploads a fresh program
// and runs it once, op after op. Programs are used in order and never
// twice, across the phases of a run.
func coldLoad(cfg config, progs []coldProg, statics coldStaticsFunc) serveLoad {
	next, tracedFrom := 0, 0
	rng := rand.New(rand.NewSource(cfg.seed))
	ctx := context.Background()
	return serveLoad{
		phase: func(r *rig, _ []uint64, d time.Duration) phaseResult {
			tracedFrom = next
			return runPhase(1, windows(d), d, func(lane, _ int, lg *clientLog) bool {
				if next == len(progs) {
					return false
				}
				p := progs[next]
				name := "cold" + strconv.Itoa(next%coldNames)
				next++
				t0 := time.Now()
				lc, err := r.load(ctx, lane, serve.LoadRequest{Name: name, Source: p.src})
				var rc call
				if err == nil {
					rc, err = r.run(ctx, lane, serve.RunRequest{Module: name, Gas: serveGas,
						Tenant: "tenant-" + strconv.Itoa(rng.Intn(hotTenants))})
				}
				lat := time.Since(t0)
				if err == nil {
					err = p.want.check(rc.resp.Output, rc.resp.Value)
				}
				lg.t.add(err == nil)
				if lc.refused || rc.refused {
					lg.refused++
				}
				if err != nil {
					return true
				}
				lg.done(lat, rc.resp)
				if r.spans != nil {
					lg.loads = append(lg.loads, lc)
					lg.runs = append(lg.runs, rc)
				}
				return true
			})
		},
		statics: func(into map[string]float64) error { return statics(cfg.seed, min(coldStaticN, len(progs)), into) },
		finish: func(ph *phaseResult, _ []uint64, into map[string]float64) {
			if next == len(progs) {
				fmt.Printf("note: all %d generated programs used before the deadline\n", len(progs))
			}
			t := ph.total()
			into["sim_cycles"] = float64(t.cycles) / float64(max(len(t.lat), 1))
		},
		layers: func() []layerProg {
			var lp []layerProg
			for _, p := range progs[tracedFrom:min(tracedFrom+coldLayers, len(progs))] {
				lp = append(lp, layerProg{src: p.src, entry: "main", args: [][]uint64{nil}, want: []expected{p.want}})
			}
			return lp
		},
	}
}
