package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync"

	"llva/internal/core"
	"llva/internal/interp"
	"llva/internal/minic"
	"llva/internal/rt"
)

// oracleMemSize is the interpreter's address space: ample for every
// input, and small, so computing expectations keeps the heap small.
const oracleMemSize = 1 << 20

// oracleWorkers is how many interpreters compute expectations at once.
const oracleWorkers = 2

// expected is one op's reference result from the interpreter.
type expected struct {
	Out   string `json:"out"`
	Value uint32 `json:"value"` // the entry's int result
}

// check compares a run's output and return value with e.
func (e expected) check(out string, value uint64) error {
	if out != e.Out || uint32(value) != e.Value {
		return fmt.Errorf("got output %q value %d, want %q value %d", out, uint32(value), e.Out, e.Value)
	}
	return nil
}

// oracle returns the expected results of a serve workload's first n
// inputs for seed, in input order.
type oracle func(workload string, seed int64, n int) ([]expected, error)

// expectInProcess is the oracle run in this process.
func expectInProcess(workload string, seed int64, n int) ([]expected, error) {
	want := make([]expected, n)
	var one func(i int) (expected, error)
	switch workload {
	case "serve-hot":
		argv := hotArgv(seed)
		one = func(i int) (expected, error) { return interpExpect(hotSource, hotEntry, argv[i]...) }
	case "serve-cold":
		srcs := coldSources(seed, n)
		one = func(i int) (expected, error) { return interpExpect(srcs[i], "main") }
	default:
		return nil, fmt.Errorf("no oracle for workload %q", workload)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < oracleWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += oracleWorkers {
				if want[i], errs[i] = one(i); errs[i] != nil {
					errs[i] = fmt.Errorf("input %d: %w", i, errs[i])
				}
			}
		}()
	}
	wg.Wait()
	return want, errors.Join(errs...)
}

// expectSubprocess runs the oracle in a child perfbench, so the
// interpreters' memory and garbage stay out of the measured process.
func expectSubprocess(workload string, seed int64, n int) ([]expected, error) {
	var want []expected
	if err := child("--oracle", workload, seed, n, &want); err != nil {
		return nil, err
	}
	if len(want) != n {
		return nil, fmt.Errorf("oracle process: %d results for %d inputs", len(want), n)
	}
	return want, nil
}

// child runs this perfbench in mode (--oracle or --statics) for the
// first n inputs of workload and seed, and decodes the JSON it prints
// into v.
func child(mode, workload string, seed int64, n int, v any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, mode, "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--count", strconv.Itoa(n))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err == nil {
		err = json.Unmarshal(out, v)
	}
	if err != nil {
		return fmt.Errorf("%s process: %w", mode, err)
	}
	return nil
}

// interpExpect compiles src without optimization and runs entry on the
// reference interpreter.
func interpExpect(src, entry string, args ...uint64) (expected, error) {
	m, err := minic.Compile("prog.c", src)
	if err != nil {
		return expected{}, err
	}
	if err := core.Verify(m); err != nil {
		return expected{}, err
	}
	var out bytes.Buffer
	ip, err := interp.New(m, &out, interp.WithMemSize(oracleMemSize))
	if err != nil {
		return expected{}, err
	}
	v, err := ip.Run(entry, args...)
	var ee *rt.ExitError
	if errors.As(err, &ee) {
		v, err = uint64(uint32(int32(ee.Code))), nil
	}
	if err != nil {
		return expected{}, err
	}
	return expected{Out: out.String(), Value: uint32(v)}, nil
}
