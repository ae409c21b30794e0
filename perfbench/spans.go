package main

import (
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"llva/internal/prof"
)

// Span lanes: Chrome-trace "process" ids for the benchmark's actors.
// Thread ids are client numbers (serve) or 0 (table2, llee drive).
const (
	pidClient = 1 // serve.Client calls, one lane per client
	pidServer = 2 // the server mux's ServeHTTP, lane of the calling client
	pidLayers = 3 // direct calls into llee and the toolchain layers
	pidTable2 = 4 // table2 ops and their layer calls
)

// spanLog keeps a traced run's spans in memory, in the repository's
// trace format (prof.Tracer), and the handler span durations by
// request ID so client and handler spans can be joined.
type spanLog struct {
	t   *prof.Tracer
	seq atomic.Uint64

	mu       sync.Mutex
	handlers map[uint64]time.Duration
}

func newSpanLog() *spanLog {
	return &spanLog{t: prof.NewTracer(), handlers: make(map[uint64]time.Duration)}
}

// nextID returns a fresh request ID; the top bits carry the client lane.
func (s *spanLog) nextID(lane int) uint64 {
	return uint64(lane)<<48 | s.seq.Add(1)
}

// handler wraps the server mux: each request gets a span under the ID
// the client stamped on it.
func (s *spanLog) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64) // 0: unstamped
		end := s.t.Begin(pidServer, int(id>>48), "serve", "ServeHTTP "+r.URL.Path, map[string]any{"req": id})
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		end()
		s.mu.Lock()
		s.handlers[id] = d
		s.mu.Unlock()
	})
}

// handlerTime returns the handler span of request id.
func (s *spanLog) handlerTime(id uint64) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.handlers[id]
	return d, ok
}

// write saves the spans as Chrome trace JSON.
func (s *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.t.WriteChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timed runs fn, adds its duration to *d and, when tr is non-nil,
// records it as a complete span in lane (pid, tid).
func timed(tr *prof.Tracer, pid, tid int, layer, name string, d *time.Duration, fn func() error) error {
	var end func()
	if tr != nil {
		end = tr.Begin(pid, tid, layer, name, nil)
	}
	t0 := time.Now()
	err := fn()
	*d += time.Since(t0)
	if end != nil {
		end()
	}
	return err
}

// steps runs a sequence of timed layer calls, skipping the rest once
// one fails; err is the first failure.
type steps struct {
	tr       *prof.Tracer
	pid, tid int
	err      error
}

func (s *steps) do(layer, name string, d *time.Duration, fn func() error) {
	if s.err == nil {
		s.err = timed(s.tr, s.pid, s.tid, layer, name, d, fn)
	}
}
