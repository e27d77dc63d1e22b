package main

import (
	"fmt"
	"strings"
)

// splitmix is the benchmark's input RNG: a splitmix64 stream, so the same
// seed yields byte-identical inputs on every Go version and platform.
type splitmix struct{ state uint64 }

func newRNG(seed uint64, stream uint64) *splitmix {
	return &splitmix{state: seed ^ (stream * 0x9e3779b97f4a7c15)}
}

func (r *splitmix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *splitmix) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// shuffle permutes s in place (Fisher-Yates).
func shuffle[T any](r *splitmix, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// churnModule is one generated PTX translation unit.
type churnModule struct {
	Name    string
	Source  string
	Kernels []churnKernel // in source order
}

// churnKernel is one generated entry and its PTX text.
type churnKernel struct {
	Name   string
	Source string
}

// Launch geometry of every generated kernel: one warp with n = churnN, so
// every thread leaves at the prologue exit and execution is the same seven
// prologue instructions for every kernel, while static size — and with it
// JIT work — varies. The body is written for up to churnActive threads.
const (
	churnGrid   = 1
	churnBlock  = 32
	churnN      = 0
	churnActive = 4
	// churnDataBytes is the per-device data buffer: reads stay below
	// churnReadSpan, each active thread writes one word at churnOutBase.
	churnDataBytes = 64 << 10
	churnReadSpan  = 16 << 10
	churnOutBase   = 32 << 10
)

// genChurn emits count unique kernels from seed, perModule to a module.
// Every kernel body is a seeded sequence of segments — straight-line tap
// chains, counted loops, if/else diamonds, shared-memory exchanges around
// bar.sync, and predicated mid-body exits — so static size (and with it JIT
// work) varies widely while the active thread count stays churnActive.
// Each kernel folds a distinct immediate into its result, so no two kernels
// share compiled code and the instrumentation cache cannot coalesce them.
// Only statements documented in docs/ptx-dialect.md are used.
func genChurn(seed uint64, count, perModule int) []churnModule {
	r := newRNG(seed, 1)
	var mods []churnModule
	for base := 0; base < count; base += perModule {
		m := churnModule{Name: fmt.Sprintf("churn_%x_m%d.ptx", seed, base/perModule)}
		var src strings.Builder
		for i := base; i < base+perModule && i < count; i++ {
			k := churnKernel{Name: fmt.Sprintf("churn_%x_k%d", seed, i)}
			k.Source = genKernel(r, k.Name, i)
			src.WriteString(k.Source)
			m.Kernels = append(m.Kernels, k)
		}
		m.Source = src.String()
		mods = append(mods, m)
	}
	return mods
}

// genKernel writes one kernel. idx makes the kernel's tag immediate unique.
func genKernel(r *splitmix, name string, idx int) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".visible .entry %s(.param .u64 data, .param .u32 n)\n{\n", name)
	b.WriteString(`	.reg .u32 %r<16>;
	.reg .u64 %rd<10>;
	.reg .f32 %f<8>;
	.reg .pred %p<4>;
	.shared .b8 smem[1024];
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u32 %r4, [n];
	setp.ge.u32 %p0, %r3, %r4;
	@%p0 exit;
	ld.param.u64 %rd0, [data];
	mul.wide.u32 %rd2, %r3, 4;
	add.u64 %rd4, %rd0, %rd2;
	shl.b32 %r5, %r2, 2;
	mov.u32 %r6, 0;
	mov.u32 %f0, 0.0;
	mov.u32 %f1, 0.5;
	mov.u32 %f2, 1.25;
`)
	// The tag immediate stays inside the 20-bit range every family
	// encodes directly, so it costs no scratch register.
	fmt.Fprintf(&b, "\txor.b32 %%r6, %%r6, %d;\n", (idx<<8|r.intn(256))+1)
	segs := r.between(4, 18)
	for s := 0; s < segs; s++ {
		label := fmt.Sprintf("S%d", s)
		switch r.intn(5) {
		case 0:
			genTaps(&b, r)
		case 1:
			genLoop(&b, r, label)
		case 2:
			genDiamond(&b, r, label)
		case 3:
			genShared(&b, r)
		default:
			genPredExit(&b, r)
		}
	}
	fmt.Fprintf(&b, `	cvt.f32.u32 %%f3, %%r6;
	add.f32 %%f0, %%f0, %%f3;
	st.global.f32 [%%rd4+%d], %%f0;
	exit;
}
`, churnOutBase)
	return b.String()
}

// genTaps: a straight-line chain of global loads folded by FMA, plus integer
// mixing into the running tag.
func genTaps(b *strings.Builder, r *splitmix) {
	for t, n := 0, r.between(3, 24); t < n; t++ {
		fmt.Fprintf(b, "\tld.global.f32 %%f4, [%%rd4+%d];\n", 4*r.intn(churnReadSpan/4-churnActive))
		b.WriteString("\tfma.rn.f32 %f0, %f4, %f1, %f0;\n")
		switch r.intn(4) {
		case 0:
			fmt.Fprintf(b, "\tadd.u32 %%r6, %%r6, %d;\n", r.between(1, 4095))
		case 1:
			fmt.Fprintf(b, "\txor.b32 %%r6, %%r6, %d;\n", r.between(1, 4095))
		case 2:
			fmt.Fprintf(b, "\tshl.b32 %%r7, %%r6, %d;\n\tadd.u32 %%r6, %%r6, %%r7;\n", r.between(1, 7))
		default:
			b.WriteString("\tmul.f32 %f5, %f4, %f2;\n\tadd.f32 %f0, %f0, %f5;\n")
		}
	}
}

// genLoop: a counted loop (2–5 trips) over a short arithmetic body.
func genLoop(b *strings.Builder, r *splitmix, label string) {
	fmt.Fprintf(b, "\tmov.u32 %%r8, %d;\n%s:\n", r.between(2, 5), label)
	for t, n := 0, r.between(2, 10); t < n; t++ {
		if r.intn(2) == 0 {
			b.WriteString("\tfma.rn.f32 %f0, %f0, %f1, %f2;\n")
		} else {
			fmt.Fprintf(b, "\tadd.u32 %%r6, %%r6, %d;\n", r.between(1, 255))
		}
	}
	fmt.Fprintf(b, "\tsub.u32 %%r8, %%r8, 1;\n\tsetp.gt.u32 %%p1, %%r8, 0;\n\t@%%p1 bra %s;\n", label)
}

// genDiamond: an if/else on the thread index with arms of different length.
func genDiamond(b *strings.Builder, r *splitmix, label string) {
	fmt.Fprintf(b, "\tsetp.lt.u32 %%p2, %%r3, %d;\n\t@%%p2 bra %s_else;\n", r.between(1, churnActive), label)
	for t, n := 0, r.between(1, 8); t < n; t++ {
		fmt.Fprintf(b, "\tadd.u32 %%r6, %%r6, %d;\n", r.between(1, 511))
	}
	fmt.Fprintf(b, "\tbra %[1]s_join;\n%[1]s_else:\n", label)
	for t, n := 0, r.between(1, 8); t < n; t++ {
		fmt.Fprintf(b, "\tld.global.f32 %%f6, [%%rd4+%d];\n\tadd.f32 %%f0, %%f0, %%f6;\n", 4*r.intn(churnReadSpan/4-churnActive))
	}
	fmt.Fprintf(b, "%s_join:\n", label)
}

// genShared: each thread publishes a value to shared memory, the CTA
// synchronizes, and each thread reads a neighbour's slot. Barriers sit only
// at the top level of the body, never inside divergent control flow.
func genShared(b *strings.Builder, r *splitmix) {
	fmt.Fprintf(b, `	st.shared.u32 [%%r5], %%r6;
	bar.sync 0;
	xor.b32 %%r9, %%r5, %d;
	ld.shared.u32 %%r10, [%%r9];
	add.u32 %%r6, %%r6, %%r10;
	bar.sync 0;
`, 4*r.between(1, 3))
}

// genPredExit: a predicated exit part-way through the body that retires
// some of the active threads.
func genPredExit(b *strings.Builder, r *splitmix) {
	fmt.Fprintf(b, "\tsetp.ge.u32 %%p3, %%r3, %d;\n\t@%%p3 exit;\n", r.between(churnActive/2+1, 3*churnActive))
}
