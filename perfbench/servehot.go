package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"llva/internal/serve"
)

// hotSource is serve-hot's one module: a short loop over a global table
// and a struct through a pointer, about 20 µs of guest execution.
const hotSource = `
struct Acc { int sum; int mix; };
int table[64];
int work(int n) {
	struct Acc a;
	struct Acc *p = &a;
	int i;
	p->sum = 0;
	p->mix = n;
	for (i = 0; i < n; i += 3) {
		table[i & 63] = table[i & 63] + i * 3 + n;
		p->sum += table[(i * 7) & 63] & 255;
		p->mix = (p->mix * 31 + i) & 65535;
	}
	print_int(p->sum); print_char(' '); print_int(p->mix); print_nl();
	return p->sum ^ p->mix;
}
int main() { return work(100); }
`

const (
	hotModule  = "hot"
	hotEntry   = "work"
	hotArgBase = 40  // the pool is the arguments hotArgBase .. hotArgBase+hotPool-1
	hotPool    = 256 // distinct arguments, each checked against the interpreter
	hotTenants = 4
	setupReps  = 21 // set-ups per run; setup_s is their median
)

// hotInputs is serve-hot's argument pool in seeded order, with the
// interpreter's result for each.
type hotInputs struct {
	argv [][]uint64
	want []expected
}

func prepareHot(seed int64, expect oracle) (*hotInputs, error) {
	want, err := expect("serve-hot", seed, hotPool)
	return &hotInputs{argv: hotArgv(seed), want: want}, err
}

// hotArgv is the argument pool in seed's order.
func hotArgv(seed int64) [][]uint64 {
	argv := make([][]uint64, hotPool)
	for k, i := range rand.New(rand.NewSource(seed)).Perm(hotPool) {
		argv[k] = []uint64{uint64(hotArgBase + i)}
	}
	return argv
}

// startHot sets up one server: System, Server and listener, the module
// loaded, and each pooled argument run once, which warms both workers'
// sessions and records each argument's simulated cycles. The load call
// is kept in r.setupLoad.
func startHot(in *hotInputs, spans *spanLog, t *tally) (*rig, []uint64, error) {
	r, err := newRig(spans)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	r.setupLoad, err = r.load(ctx, 0, serve.LoadRequest{Name: hotModule, Source: hotSource})
	t.add(err == nil)
	if err != nil {
		_ = r.close() // the load error is the one to report
		return nil, nil, fmt.Errorf("load: %w", err)
	}
	cycles := make([]uint64, hotPool)
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < hotPool; i += serveClients {
				call, err := r.run(ctx, c, serve.RunRequest{Module: hotModule, Entry: hotEntry, Args: in.argv[i], Gas: serveGas})
				if err == nil {
					err = in.want[i].check(call.resp.Output, call.resp.Value)
				}
				if err != nil {
					errs[c] = err
					return
				}
				cycles[i] = call.resp.Cycles
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.add(false)
			_ = r.close() // the warm-up error is the one to report
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	for range cycles {
		t.add(true)
	}
	return r, cycles, nil
}

// hotPhase drives serveClients closed-loop clients for d. Each request
// draws its argument and tenant from the client's seeded stream; a
// result must match the interpreter and repeat its argument's cycles.
func hotPhase(r *rig, in *hotInputs, cycles []uint64, seed int64, d time.Duration) phaseResult {
	tenants := make([]string, hotTenants)
	for i := range tenants {
		tenants[i] = "tenant-" + strconv.Itoa(i)
	}
	rngs := make([]*rand.Rand, serveClients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seed*serveClients + int64(c) + 1))
	}
	ctx := context.Background()
	return runPhase(serveClients, windows(d), d, func(lane, _ int, lg *clientLog) bool {
		rng := rngs[lane]
		k := rng.Intn(hotPool)
		req := serve.RunRequest{Module: hotModule, Entry: hotEntry, Args: in.argv[k], Gas: serveGas,
			Tenant: tenants[rng.Intn(hotTenants)]}
		c, err := r.run(ctx, lane, req)
		if err == nil {
			err = in.want[k].check(c.resp.Output, c.resp.Value)
		}
		if err == nil && c.resp.Cycles != cycles[k] {
			err = fmt.Errorf("cycles %d, first run had %d", c.resp.Cycles, cycles[k])
		}
		lg.t.add(err == nil)
		if c.refused {
			lg.refused++
		}
		if err != nil {
			return true
		}
		lg.done(c.client, c.resp)
		if r.spans != nil {
			lg.runs = append(lg.runs, c)
		}
		return true
	})
}

// hotLoad is the serve-hot traffic: one shared module, many tenants.
func hotLoad(cfg config, in *hotInputs) serveLoad {
	return serveLoad{
		phase: func(r *rig, cycles []uint64, d time.Duration) phaseResult {
			return hotPhase(r, in, cycles, cfg.seed, d)
		},
		statics: func(into map[string]float64) error { return moduleStatics(hotSource, into) },
		finish: func(_ *phaseResult, cycles []uint64, into map[string]float64) {
			// The pool is the same set of arguments for every seed, so
			// its summed cycles repeat exactly run to run.
			var sum uint64
			for _, c := range cycles {
				sum += c
			}
			into["sim_cycles"] = float64(sum)
		},
		layers: func() []layerProg {
			return []layerProg{{src: hotSource, entry: hotEntry, args: in.argv, want: in.want}}
		},
	}
}
