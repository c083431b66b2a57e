package vm

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/minipy"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestQuickenedDisassemblyGolden pins the byte-exact register stream after
// quickening: run the fib kernel on the register tier, then disassemble the
// Interp's private op copies. The golden documents which sites quicken
// (monomorphic int compare/sub sites become RBINARY_II) and which stay
// generic (the call-result add), and any change to quickening policy or to
// the disassembler's operand rendering shows up as a reviewed diff.
func TestQuickenedDisassemblyGolden(t *testing.T) {
	const src = `
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

def run():
    return fib(10)
`
	code, err := minipy.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	in := New(Config{})
	if _, err := in.RunModule(code); err != nil {
		t.Fatal(err)
	}
	if _, err := in.CallGlobal("run"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	var walk func(c *minipy.Code)
	walk = func(c *minipy.Code) {
		if dis := in.DisassembleQuickened(c); dis != "" {
			sb.WriteString(dis)
		}
		for _, k := range c.Consts {
			if sub, ok := k.(*minipy.Code); ok {
				walk(sub)
			}
		}
	}
	walk(code)
	got := []byte(sb.String())
	if !bytes.Contains(got, []byte("RBINARY_II")) {
		t.Fatalf("expected at least one quickened RBINARY_II site:\n%s", got)
	}
	golden := filepath.Join("testdata", "fib.quickdis.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("quickened disassembly drifted from %s (run with -update if intentional)\n--- got\n%s", golden, got)
	}
}
