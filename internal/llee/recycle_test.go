package llee

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"llva/internal/core"
	"llva/internal/minic"
	"llva/internal/obj"
	"llva/internal/target"
)

// recycleMem is the address-space size of the recycling tests: small
// enough to scan quickly, the size llva-serve runs sessions at.
const recycleMem = 1 << 22

func compileSrc(t *testing.T, name, src string) *core.Module {
	t.Helper()
	m, err := minic.Compile(name, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func stampOf(t *testing.T, m *core.Module) string {
	t.Helper()
	enc, err := obj.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return Stamp(enc)
}

// TestReleaseDropsModuleState: Release removes a module's state from
// the System and counts the eviction; a session created before keeps
// running, and the next session of the module builds a fresh state.
func TestReleaseDropsModuleState(t *testing.T) {
	m := compileTest(t)
	sys := NewSystem()
	states := sys.Telemetry().Gauge(MetricModuleStates)
	if err := sys.Preload(m, target.VX86); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sess, err := sys.NewSession(m, target.VX86, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n := states.Value(); n != 1 {
		t.Fatalf("module_states = %d after Preload, want 1", n)
	}
	if err := sys.Release(stampOf(t, m), target.VX86); err != nil {
		t.Fatal(err)
	}
	if n := states.Value(); n != 0 {
		t.Fatalf("module_states = %d after Release, want 0", n)
	}
	if n := sys.Telemetry().CounterValue(MetricModuleEvictions); n != 1 {
		t.Fatalf("module_evictions = %d, want 1", n)
	}
	if _, err := sess.Run(context.Background(), "main"); err != nil || out.String() != "328350\n" {
		t.Fatalf("session of a released state: %v %q", err, out.String())
	}
	if _, err := sys.NewSession(m, target.VX86, io.Discard); err != nil {
		t.Fatal(err)
	}
	if n := states.Value(); n != 1 {
		t.Fatalf("module_states = %d after a new session, want 1", n)
	}
	if err := sys.Release("no-such-stamp", target.VX86); err != nil {
		t.Fatalf("Release of an unknown stamp: %v", err)
	}
}

// TestCloseRecyclesSpaceForReuse: closing a sealed session hands its
// address space to the next session of the same size, closing an
// unsealed one does not, and a closed session refuses Run and Reset.
func TestCloseRecyclesSpaceForReuse(t *testing.T) {
	m := compileTest(t)
	sys := NewSystem()
	recycled := func() uint64 { return sys.Telemetry().CounterValue(MetricSessionRecycled) }
	if err := sys.Preload(m, target.VX86); err != nil {
		t.Fatal(err)
	}
	plain, err := sys.NewSession(m, target.VX86, io.Discard, WithMemSize(recycleMem))
	if err != nil {
		t.Fatal(err)
	}
	plain.Close()
	if _, err := sys.NewSession(m, target.VX86, io.Discard, WithMemSize(recycleMem)); err != nil {
		t.Fatal(err)
	}
	if n := recycled(); n != 0 {
		t.Fatalf("an unsealed session's space was recycled (recycled = %d)", n)
	}

	sealed, err := sys.NewSession(m, target.VX86, io.Discard, WithMemSize(recycleMem), WithReuse(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sealed.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	sealed.Close()
	sealed.Close() // idempotent: the space is handed back once
	if _, err := sealed.Run(context.Background(), "main"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
	if err := sealed.Reset(io.Discard, 0, "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Reset after Close = %v, want ErrClosed", err)
	}
	if sealed.Resettable() {
		t.Fatal("closed session reports Resettable")
	}
	if _, err := sys.NewSession(m, target.VX86, io.Discard, WithMemSize(2*recycleMem)); err != nil {
		t.Fatal(err)
	}
	if n := recycled(); n != 0 {
		t.Fatalf("a spare of another size was recycled (recycled = %d)", n)
	}
	var out bytes.Buffer
	sess, err := sys.NewSession(m, target.VX86, &out, WithMemSize(recycleMem))
	if err != nil {
		t.Fatal(err)
	}
	if n := recycled(); n != 1 {
		t.Fatalf("recycled = %d, want 1", n)
	}
	if _, err := sess.Run(context.Background(), "main"); err != nil || out.String() != "328350\n" {
		t.Fatalf("run on a recycled space: %v %q", err, out.String())
	}
	if _, err := sys.NewSession(m, target.VX86, io.Discard, WithMemSize(recycleMem)); err != nil {
		t.Fatal(err)
	}
	if n := recycled(); n != 1 {
		t.Fatalf("one spare was handed out twice (recycled = %d)", n)
	}
}

// plantProg is tenant A's program: it plants a recognizable secret in a
// global array, a heap block and a stack array.
const plantProg = `
int g[512];
int main() {
	int i;
	int buf[64];
	int *p = malloc(8192);
	for (i = 0; i < 512; i++) g[i] = 0x5EC2E75E;
	for (i = 0; i < 2048; i++) p[i] = 0x5EC2E75E;
	for (i = 0; i < 64; i++) buf[i] = 0x5EC2E75E;
	return buf[63] + g[511] + p[2047];
}
`

// harvestProg is tenant B's fresh module: it reads its own globals, a
// heap block of the same size and an uninitialized stack array, and
// counts nonzero words — anything of A's that survived shows up.
const harvestProg = `
int h[512];
int main() {
	int i, n = 0;
	int buf[64];
	int *p = malloc(8192);
	for (i = 0; i < 512; i++) if (h[i] != 0) n = n + 1;
	for (i = 0; i < 2048; i++) if (p[i] != 0) n = n + 1;
	for (i = 0; i < 64; i++) if (buf[i] != 0) n = n + 1;
	return n;
}
`

// TestRecycledSpaceIsolation is the adversarial gate for recycling:
// tenant A's module plants a secret everywhere it can and is then
// replaced; tenant B's fresh module gets A's recycled address space,
// and a host-side scan of the entire space — strictly stronger than any
// guest read — finds no byte of the secret, before or after B runs.
func TestRecycledSpaceIsolation(t *testing.T) {
	ma := compileSrc(t, "plant.c", plantProg)
	mb := compileSrc(t, "harvest.c", harvestProg)
	sys := NewSystem()
	if err := sys.Preload(ma, target.VX86); err != nil {
		t.Fatal(err)
	}
	a, err := sys.NewSession(ma, target.VX86, io.Discard,
		WithMemSize(recycleMem), WithReuse(true), WithTenant("A"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	needle := bytes.Repeat([]byte{0x5e, 0xe7, 0xc2, 0x5e}, 4) // 16-byte run of the secret
	scan := func(s *Session) int { return bytes.Count(memView(t, s), needle) }
	// 2 KiB of globals + 8 KiB of heap + 256 B of stack, in 16-byte runs.
	if n := scan(a); n < (2048+8192+256)/16 {
		t.Fatalf("sanity: only %d secret runs in tenant A's space", n)
	}
	if err := sys.Release(stampOf(t, ma), target.VX86); err != nil {
		t.Fatal(err)
	}
	a.Close()

	if err := sys.Preload(mb, target.VX86); err != nil {
		t.Fatal(err)
	}
	b, err := sys.NewSession(mb, target.VX86, io.Discard,
		WithMemSize(recycleMem), WithReuse(true), WithTenant("B"))
	if err != nil {
		t.Fatal(err)
	}
	if n := sys.Telemetry().CounterValue(MetricSessionRecycled); n != 1 {
		t.Fatalf("tenant B's session was not built on the recycled space (recycled = %d)", n)
	}
	if n := scan(b); n != 0 {
		t.Fatalf("%d secret runs of tenant A survived into tenant B's fresh session", n)
	}
	res, err := b.Run(context.Background(), "main")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 {
		t.Fatalf("tenant B read %d nonzero words", res.Value)
	}
	if n := scan(b); n != 0 {
		t.Fatalf("%d secret runs of tenant A visible after tenant B's run", n)
	}
}
