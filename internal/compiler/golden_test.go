package compiler

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/disasm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/minic"
)

// The golden-program suite: realistic algorithms written in the source
// language under testdata/, parsed by the textual frontend and executed
// through every (architecture, level) pair. Each program defines
// main(p, n, a, b); the reference interpreter's result is the oracle, and
// a couple of spot values are pinned so the oracle itself cannot silently
// drift.
func TestGoldenPrograms(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.mc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("only %d golden programs found", len(paths))
	}

	envs := []*minic.Env{
		{Args: []int64{minic.DataBase, 12, 48, 18}, Data: []byte("hello golden world!!")},
		{Args: []int64{minic.DataBase, 24, 27, 6}, Data: []byte{9, 3, 7, 1, 8, 2, 6, 4, 5, 0, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
		{Args: []int64{minic.DataBase, 8, 0, 0}},
	}

	// Pinned oracle spot-checks (program, env index) -> expected value,
	// computed independently of the toolchain.
	pinned := map[string]map[int]int64{
		"gcd.mc": {0: 6, 1: 3}, // gcd(48,18)=6, gcd(27,6)=3
		// steps(48): 48→24→12→6→3→10→5→16→8→4→2→1 = 11; steps(27) = 111.
		"collatz.mc": {0: 11, 1: 111},
	}

	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			name := strings.TrimSuffix(filepath.Base(path), ".mc")
			mod, err := minic.Parse(name, string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			for ei, env := range envs {
				want, err := minic.Run(mod, "main", env.Clone(), 1<<20)
				if err != nil {
					t.Fatalf("env %d: interpreter: %v", ei, err)
				}
				if exp, ok := pinned[filepath.Base(path)][ei]; ok && want.Ret != exp {
					t.Fatalf("env %d: oracle drift: interpreter says %d, independent value is %d",
						ei, want.Ret, exp)
				}
				for _, arch := range isa.All() {
					for _, lvl := range Levels() {
						im, err := Compile(mod, arch, lvl)
						if err != nil {
							t.Fatalf("%s/%s: %v", arch.Name, lvl, err)
						}
						dis, err := disasm.Disassemble(im)
						if err != nil {
							t.Fatalf("%s/%s: %v", arch.Name, lvl, err)
						}
						got, err := emu.ExecuteByName(dis, "main", env.Clone(), 1<<22)
						if err != nil {
							t.Fatalf("%s/%s env %d: %v", arch.Name, lvl, ei, err)
						}
						if got.Ret != want.Ret {
							t.Errorf("%s/%s env %d: got %d, want %d", arch.Name, lvl, ei, got.Ret, want.Ret)
						}
						if string(got.Data()) != string(want.Mem) {
							t.Errorf("%s/%s env %d: memory diverges", arch.Name, lvl, ei)
						}
					}
				}
			}
		})
	}
}
