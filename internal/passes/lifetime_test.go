package passes

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"llva/internal/asm"
	"llva/internal/minic"
)

// TestOptimizeConcurrent runs the full pipeline on several goroutines at
// once, each on its own module: Optimize keeps no shared mutable state,
// so the race detector stays quiet and every copy optimizes to the same
// IR as a sequential run.
func TestOptimizeConcurrent(t *testing.T) {
	const goroutines = 4
	want := make(map[string]string, len(testPrograms))
	for name, src := range testPrograms {
		m, err := minic.Compile(name+".c", src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Optimize(m); err != nil {
			t.Fatal(err)
		}
		want[name] = asm.Print(m)
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*len(testPrograms))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name, src := range testPrograms {
				m, err := minic.Compile(name+".c", src)
				if err != nil {
					errs <- name + ": " + err.Error()
					continue
				}
				if _, err := Optimize(m); err != nil {
					errs <- name + ": " + err.Error()
					continue
				}
				if got := asm.Print(m); got != want[name] {
					errs <- name + ": concurrent Optimize produced different IR"
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestOptimizeReleasesModule: once Optimize returns and the caller drops
// its module, nothing the passes keep may hold the IR reachable — a
// long-running server optimizes every uploaded program and must not
// accumulate them. The witness is a finalizer on the module's type
// context: the IR is one big cycle (functions point back at their
// module), and a finalizer inside a cycle need never run, but the type
// context is reachable only from its module and points at nothing back.
func TestOptimizeReleasesModule(t *testing.T) {
	collected := make(chan struct{})
	func() {
		m, err := minic.Compile("calls.c", testPrograms["calls"])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Optimize(m); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(m.Types(), func(any) { close(collected) })
	}()
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("optimized module still reachable after Optimize returned")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
