package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// genProgram writes one MiniC program for serve-cold from rng. Every
// name carries id, so no two programs share a function, global or
// struct type, and their module stamps differ. The constructs are the
// ones the 17-workload suite is built from: global and local arrays,
// counted and conditional loops, malloc'd structs linked by pointers,
// pointer arithmetic and calls between functions. Array indices are
// masked to the array size and divisors are non-zero constants, so a
// correct toolchain runs every program to completion.
func genProgram(rng *rand.Rand, id int) string {
	var b strings.Builder
	nfn := 6 + rng.Intn(5)
	fmt.Fprintf(&b, "/* perfbench serve-cold program %d */\n", id)
	fmt.Fprintf(&b, "struct N%d { int v; int w; struct N%d *next; };\n", id, id)
	for k := 0; k < nfn; k++ {
		name := fmt.Sprintf("f%d_%d", id, k)
		kind := rng.Intn(6)
		if kind == 5 && k < 2 {
			kind = 0 // a call chain needs two earlier functions
		}
		switch kind {
		case 0:
			genArrayLoop(&b, rng, id, k, name)
		case 1:
			genList(&b, rng, id, name)
		case 2:
			genPointerWalk(&b, rng, name)
		case 3:
			genNested(&b, rng, name)
		case 4:
			genCollatz(&b, rng, name)
		default:
			fmt.Fprintf(&b, "int %s(int x) {\n\tint a = f%d_%d(x + %d);\n\tint c = f%d_%d(x & %d);\n\treturn (a ^ c) + %d;\n}\n",
				name, id, k-1, rng.Intn(100), id, k-2, 1+rng.Intn(1023), rng.Intn(1000))
		}
	}
	b.WriteString("int main() {\n")
	for i, n := 0, 2+rng.Intn(3); i < n; i++ {
		fmt.Fprintf(&b, "\tprint_int(f%d_%d(%d)); print_nl();\n", id, rng.Intn(nfn), rng.Intn(5000))
	}
	fmt.Fprintf(&b, "\tprint_int(f%d_%d(%d)); print_nl();\n\treturn 0;\n}\n", id, nfn-1, rng.Intn(5000))
	return b.String()
}

func genArrayLoop(b *strings.Builder, rng *rand.Rand, id, k int, name string) {
	n := 16 << rng.Intn(4)
	fmt.Fprintf(b, "int A%d_%d[%d];\n", id, k, n)
	fmt.Fprintf(b, `int %s(int x) {
	int i, acc = %d;
	for (i = 0; i < %d; i++) {
		A%d_%d[i & %d] = A%d_%d[i & %d] * %d + (x ^ i);
		acc += (A%d_%d[(i * %d) & %d] >> %d) & 1023;
	}
	return acc;
}
`, name, rng.Intn(100), 16+rng.Intn(240),
		id, k, n-1, id, k, n-1, 1+rng.Intn(9), id, k, 1+2*rng.Intn(8), n-1, rng.Intn(6))
}

func genList(b *strings.Builder, rng *rand.Rand, id int, name string) {
	fmt.Fprintf(b, `int %s(int x) {
	struct N%d *head = 0;
	struct N%d *p;
	int i, acc = 0;
	for (i = 0; i < %d; i++) {
		p = (struct N%d*)malloc(sizeof(struct N%d));
		p->v = (x + i * %d) & 4095;
		p->w = i %% %d;
		p->next = head;
		head = p;
	}
	for (p = head; p != 0; p = p->next) {
		if (p->v > %d) acc += p->v * %d + p->w; else acc -= p->w;
	}
	return acc;
}
`, name, id, id, 8+rng.Intn(56), id, id, 1+rng.Intn(97), 2+rng.Intn(13), rng.Intn(4096), 1+rng.Intn(7))
}

func genPointerWalk(b *strings.Builder, rng *rand.Rand, name string) {
	n := 8 + rng.Intn(57)
	fmt.Fprintf(b, `int %s(int x) {
	int buf[%d];
	int *p = buf;
	int i, acc = 0;
	for (i = 0; i < %d; i++) *(p + i) = (x * %d + i) & 255;
	for (i = 0; i < %d; i++) { acc += *p * %d; p++; }
	return acc;
}
`, name, n, n, 1+rng.Intn(31), n, 1+rng.Intn(5))
}

func genNested(b *strings.Builder, rng *rand.Rand, name string) {
	fmt.Fprintf(b, `int %s(int x) {
	int i, j, acc = x & 255;
	for (i = 0; i < %d; i++)
		for (j = 0; j < %d; j++)
			acc += (i * %d + j + (x & 63)) %% %d;
	return acc;
}
`, name, 4+rng.Intn(20), 4+rng.Intn(20), 1+rng.Intn(50), 2+rng.Intn(60))
}

func genCollatz(b *strings.Builder, rng *rand.Rand, name string) {
	fmt.Fprintf(b, `int %s(int x) {
	int n = (x & %d) + 1;
	int steps = 0;
	while (n != 1 && steps < %d) {
		if (n & 1) n = 3 * n + 1; else n = n / 2;
		steps++;
	}
	return steps * %d + n;
}
`, name, 255+rng.Intn(769), 50+rng.Intn(150), 1+rng.Intn(9))
}
