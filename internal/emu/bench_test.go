package emu

import (
	"runtime"
	"testing"

	"repro/internal/compiler"
	"repro/internal/disasm"
	"repro/internal/isa"
	"repro/internal/minic"
)

// BenchmarkExecute measures emulated instructions per second on a
// memory-heavy checksum loop (the pipeline's dominant dynamic-stage cost).
func BenchmarkExecute(b *testing.B) {
	mod := &minic.Module{Name: "b", Funcs: []*minic.Func{
		minic.NewFunc("hot", []string{"p", "n"},
			minic.Set("s", minic.I(0)),
			minic.Set("i", minic.I(0)),
			minic.Loop(minic.Lt(minic.V("i"), minic.V("n")),
				minic.Set("s", minic.Xor(minic.Shl(minic.V("s"), minic.I(3)),
					minic.Ld(minic.V("p"), minic.And(minic.V("i"), minic.I(255))))),
				minic.Set("i", minic.Add(minic.V("i"), minic.I(1)))),
			minic.Ret(minic.V("s"))),
	}}
	for _, arch := range isa.All() {
		arch := arch
		b.Run(arch.Name, func(b *testing.B) {
			im, err := compiler.Compile(mod, arch, compiler.O2)
			if err != nil {
				b.Fatal(err)
			}
			dis, err := disasm.Disassemble(im)
			if err != nil {
				b.Fatal(err)
			}
			fn, _ := dis.Lookup("hot")
			env := &minic.Env{Args: []int64{minic.DataBase, 4096}, Data: make([]byte, 4096)}
			res, err := Execute(dis, fn, env, 1<<22)
			if err != nil {
				b.Fatal(err)
			}
			perIter := res.Trace.Instrs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Execute(dis, fn, env, 1<<22); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(perIter)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
}

// BenchmarkExecuteSetup measures the fixed cost of one execution — address
// space, trace and builtin state — on a function that is a bare ret.
func BenchmarkExecuteSetup(b *testing.B) {
	dis, fn := handBuilt(di(isa.Instr{Op: isa.Ret}))
	env := &minic.Env{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(dis, fn, env, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExecuteAllocBound is a machine-independent gate on per-execution
// setup cost: a trivial function must not allocate more than 16 KiB per
// run on average. An eagerly allocated region of any size (the 64 KiB
// data region, the 1 MiB heap or stack) fails it.
func TestExecuteAllocBound(t *testing.T) {
	const runs, bound = 100, 16 << 10
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("trivial", []string{"a"}, minic.Ret(minic.Add(minic.V("a"), minic.I(1)))),
	}}
	dis := disassembled(t, mod, isa.AMD64, compiler.O0) // O0: a real frame on the stack
	fn, _ := dis.Lookup("trivial")
	env := &minic.Env{Args: []int64{41}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		res, err := Execute(dis, fn, env, 0)
		if err != nil || res.Ret != 42 {
			t.Fatalf("run %d: ret %v, err %v", i, res, err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= bound {
		t.Errorf("Execute allocates %d bytes per run, want < %d", per, bound)
	} else {
		t.Logf("Execute allocates %d bytes per run", per)
	}
}
