package main

import (
	"crypto/sha256"
	"testing"

	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
)

// TestChurnKernelsCompileAndAreUnique compiles every generated kernel for
// several seeds on both encoding families (64-bit words and Volta's 128-bit
// words) and checks that no two kernels share PTX text or compiled code.
func TestChurnKernelsCompileAndAreUnique(t *testing.T) {
	for _, seed := range []uint64{1, 2, 0xfeed} {
		mods := genChurn(seed, churnKernels, churnPerModule)
		for _, fam := range []sass.Family{sass.Pascal, sass.Volta} {
			codec := sass.CodecFor(fam)
			srcs := map[[32]byte]string{}
			codes := map[[32]byte]string{}
			n := 0
			for _, m := range mods {
				pm, err := ptx.Compile(m.Name, m.Source, fam)
				if err != nil {
					t.Fatalf("seed %d %v: %v", seed, fam, err)
				}
				if len(pm.Funcs) != len(m.Kernels) {
					t.Fatalf("seed %d %v: module %s compiled %d functions, want %d", seed, fam, m.Name, len(pm.Funcs), len(m.Kernels))
				}
				for i, f := range pm.Funcs {
					k := m.Kernels[i]
					if f.Name != k.Name {
						t.Fatalf("function %d of %s is %s, want %s", i, m.Name, f.Name, k.Name)
					}
					code, err := codec.EncodeAll(f.Insts)
					if err != nil {
						t.Fatalf("%s on %v: encode: %v", k.Name, fam, err)
					}
					if prev, dup := srcs[sha256.Sum256([]byte(k.Source))]; dup {
						t.Fatalf("%s and %s have identical PTX", prev, k.Name)
					}
					srcs[sha256.Sum256([]byte(k.Source))] = k.Name
					if prev, dup := codes[sha256.Sum256(code)]; dup {
						t.Fatalf("%s and %s compile to identical %v code", prev, k.Name, fam)
					}
					codes[sha256.Sum256(code)] = k.Name
					n++
				}
			}
			if n != churnKernels {
				t.Fatalf("seed %d: %d kernels, want %d", seed, n, churnKernels)
			}
		}
	}
}

// TestChurnDeterministic pins that the same seed gives byte-identical
// sources and another seed gives different ones.
func TestChurnDeterministic(t *testing.T) {
	a, b := genChurn(7, churnKernels, churnPerModule), genChurn(7, churnKernels, churnPerModule)
	for i := range a {
		if a[i].Source != b[i].Source || a[i].Name != b[i].Name {
			t.Fatalf("module %d differs between two draws of seed 7", i)
		}
	}
	if c := genChurn(8, churnKernels, churnPerModule); c[0].Source == a[0].Source {
		t.Fatal("seeds 7 and 8 drew the same first module")
	}
}
