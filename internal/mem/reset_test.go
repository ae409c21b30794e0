package mem

import (
	"bytes"
	"testing"
)

// sealFixture builds a memory that looks like a loaded session: a
// static image at NullGuard, the heap starting right after it, sealed
// with that image as the segment Reset must restore.
func sealFixture(t *testing.T) (*Memory, []byte) {
	t.Helper()
	m := New(1<<20, true)
	image := bytes.Repeat([]byte{0x5a, 0xc3, 0x01, 0x7f}, PageSize) // ~4 pages
	if err := m.WriteBytes(NullGuard, image); err != nil {
		t.Fatal(err)
	}
	m.SetHeapStart((NullGuard + uint64(len(image)) + 15) &^ 15)
	m.Seal(Segment{Base: NullGuard, Bytes: image})
	if !m.Sealed() {
		t.Fatal("Sealed() = false after Seal")
	}
	return m, image
}

// TestResetRestoresPristine runs a "guest turn" that writes everywhere
// it can — over the sealed image, onto the heap, onto the stack — and
// checks Reset returns every byte of the address space to the sealed
// snapshot.
func TestResetRestoresPristine(t *testing.T) {
	m, _ := sealFixture(t)
	pristine := append([]byte(nil), m.data...)
	sp0, brk0 := m.SP(), m.brk

	// Scribble over the sealed image (Store), the heap (Alloc + WriteBytes),
	// and the stack (PushStack + Store), plus a writable view (Bytes).
	if err := m.Store(NullGuard+123, 8, 0xdeadbeefcafef00d); err != nil {
		t.Fatal(err)
	}
	a, err := m.Alloc(3 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBytes(a, bytes.Repeat([]byte{0xab}, 3*PageSize)); err != nil {
		t.Fatal(err)
	}
	sp, err := m.PushStack(256)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Store(sp, 8, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	view, err := m.Bytes(NullGuard+PageSize, 64)
	if err != nil {
		t.Fatal(err)
	}
	copy(view, bytes.Repeat([]byte{0xee}, 64))

	if m.DirtyPages() == 0 {
		t.Fatal("no dirty pages recorded after writes")
	}
	if n := m.Reset(); n == 0 {
		t.Fatal("Reset restored no pages")
	}
	if !bytes.Equal(m.data, pristine) {
		for i := range m.data {
			if m.data[i] != pristine[i] {
				t.Fatalf("byte %#x differs after Reset: got %#x want %#x", i, m.data[i], pristine[i])
			}
		}
	}
	if m.SP() != sp0 || m.brk != brk0 {
		t.Errorf("allocator not restored: sp %#x/%#x brk %#x/%#x", m.SP(), sp0, m.brk, brk0)
	}
	if m.DirtyPages() != 0 {
		t.Errorf("DirtyPages() = %d after Reset, want 0", m.DirtyPages())
	}
}

// TestResetCostScalesWithDirty pins the tentpole property: reset cost
// is proportional to the pages a run touched, not the address space.
func TestResetCostScalesWithDirty(t *testing.T) {
	m, _ := sealFixture(t)
	heap := m.heapStart

	if err := m.Store(heap, 8, 1); err != nil {
		t.Fatal(err)
	}
	if n := m.Reset(); n != 1 {
		t.Errorf("one-store run reset %d pages, want 1", n)
	}

	const pages = 32
	for i := 0; i < pages; i++ {
		if err := m.Store(heap+uint64(i+1)*PageSize, 8, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.Reset(); n != pages {
		t.Errorf("%d-page run reset %d pages", pages, n)
	}

	// An untouched run costs nothing.
	if n := m.Reset(); n != 0 {
		t.Errorf("idle reset restored %d pages, want 0", n)
	}
}

// TestResetAllocatorDeterminism replays an identical Alloc/Free script
// before and after Reset: the addresses must match exactly, or a reused
// session's heap layout (and therefore its cycle count) would drift
// from a fresh one.
func TestResetAllocatorDeterminism(t *testing.T) {
	m, _ := sealFixture(t)

	// Pre-seal allocations (session setup) must survive Reset: re-seal
	// with a live block and a populated free list.
	setup, err := m.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	tmp, _ := m.Alloc(64)
	if err := m.Free(tmp); err != nil {
		t.Fatal(err)
	}
	m.Seal(Segment{Base: NullGuard, Bytes: make([]byte, 16)})

	script := func() []uint64 {
		var addrs []uint64
		a, _ := m.Alloc(64) // must come from the sealed free list
		b, _ := m.Alloc(4096)
		c, _ := m.Alloc(33)
		addrs = append(addrs, a, b, c)
		m.Free(b)
		d, _ := m.Alloc(4000) // same class as b: reuses its slot
		addrs = append(addrs, d)
		return addrs
	}
	first := script()
	m.Reset()
	second := script()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("alloc %d: %#x before reset, %#x after", i, first[i], second[i])
		}
	}
	// The pre-seal block is still accounted for.
	if err := m.Free(setup); err != nil {
		t.Errorf("pre-seal block lost across Reset: %v", err)
	}
}

// TestResetUnsealedNoop: memories that never sealed (every non-serve
// session) pay nothing and change nothing.
func TestResetUnsealedNoop(t *testing.T) {
	m := New(1<<16, true)
	if err := m.Store(NullGuard, 8, 42); err != nil {
		t.Fatal(err)
	}
	if n := m.Reset(); n != 0 {
		t.Errorf("unsealed Reset = %d, want 0", n)
	}
	if v, _ := m.Load(NullGuard, 8); v != 42 {
		t.Errorf("unsealed Reset clobbered memory: %d", v)
	}
}

// TestReuseAfterReleaseIsFresh: a space that was sealed, scribbled on
// past its seal and released comes back through Reuse indistinguishable
// from New — every byte zero, the allocator at its initial registers —
// and the released memory no longer owns the array.
func TestReuseAfterReleaseIsFresh(t *testing.T) {
	m, _ := sealFixture(t)
	a, err := m.Alloc(3 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBytes(a, bytes.Repeat([]byte{0xee}, 3*PageSize)); err != nil {
		t.Fatal(err)
	}
	sp, err := m.PushStack(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Store(sp, 8, 0x5ec2e75e5ec2e75e); err != nil {
		t.Fatal(err)
	}
	space := m.Release()
	if m.Size() != 0 {
		t.Fatalf("released memory still reports %d bytes", m.Size())
	}

	got, want := Reuse(space, true), New(uint64(len(space)), true)
	if !bytes.Equal(got.data, want.data) {
		t.Fatal("recycled space differs from a fresh one")
	}
	if got.Size() != want.Size() || got.SP() != want.SP() || got.HeapUsed() != want.HeapUsed() ||
		got.brk != want.brk || got.Sealed() || len(got.blockSize) != 0 {
		t.Fatalf("recycled allocator state differs from a fresh one: size=%d sp=%#x brk=%#x sealed=%v",
			got.Size(), got.SP(), got.brk, got.Sealed())
	}
	// The recycled memory behaves as new: the first allocation lands where
	// a fresh memory's would.
	ga, err := got.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	wa, err := want.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if ga != wa {
		t.Fatalf("first allocation at %#x, fresh memory's at %#x", ga, wa)
	}
}
