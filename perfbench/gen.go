package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Generator parameters of the search workload's programs. Every kernel
// is a sibling loop nest over genElems elements repeated genReps times,
// so each contributes two nested clusters to the Fig. 1 pool.
const (
	genKernels  = 20
	genElems    = 32
	genReps     = 16
	genMulShare = 0.4
)

// genProgram returns the behavioral-DSL source of the seed's program.
// Every program holds the same genKernels kernel shapes, a genMulShare
// share of them with a multiply; the seed picks their order along the
// pipeline and their constants. Programs thus differ in which clusters
// rank where and in every priced number, while the simulated work — and
// so the benchmark's time per query — stays nearly the same across
// seeds.
func genProgram(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	fmt.Fprintf(&b, "# generated kernel set, seed %d\n", seed)
	fmt.Fprintf(&b, "const N = %d;\nconst R = %d;\n", genElems, genReps)
	b.WriteString("var x[N]; var y[N];\n")
	for k := 0; k < genKernels; k++ {
		fmt.Fprintf(&b, "var z%d[N];\n", k)
	}
	b.WriteString("var checksum;\n\nfunc main() {\n\tvar i; var r; var s; var v; var w; var t;\n")
	fmt.Fprintf(&b, "\ts = %d;\n", 1+rng.Intn(1<<20))
	b.WriteString("\tfor i = 0; i < N; i = i + 1 {\n" +
		"\t\ts = s * 1103515245 + 12345;\n\t\tx[i] = (s >> 16) & 255;\n" +
		"\t\ts = s * 1103515245 + 12345;\n\t\ty[i] = (s >> 16) & 255;\n\t}\n")
	for k, shape := range rng.Perm(genKernels) {
		// Kernel k reads the previous kernel's output, so neighbouring
		// clusters exchange data the way Fig. 3's bus-traffic score
		// expects of a pipeline.
		in := "y"
		if k > 0 {
			in = fmt.Sprintf("z%d", k-1)
		}
		fmt.Fprintf(&b, "\tfor r = 0; r < R; r = r + 1 {\n\t\tfor i = 0; i < N; i = i + 1 {\n")
		fmt.Fprintf(&b, "\t\t\tv = x[i]; w = %s[i];\n", in)
		fmt.Fprintf(&b, "\t\t\tt = %s;\n", kernelExpr(rng, shape))
		fmt.Fprintf(&b, "\t\t\tz%d[i] = (t + r) & 65535;\n\t\t}\n\t}\n", k)
	}
	fmt.Fprintf(&b, "\tchecksum = 0;\n\tfor i = 0; i < N; i = i + 1 {\n\t\tchecksum = checksum ^ z%d[i];\n\t}\n}\n", genKernels-1)
	return b.String()
}

// kernelExpr returns the right-hand side of kernel shape s (0 ≤ s <
// genKernels) over v and w: three terms joined by two operators, all
// picked by the shape, with seeded constants. Shapes below
// genMulShare·genKernels replace one term with a product.
func kernelExpr(rng *rand.Rand, s int) string {
	terms := []string{
		fmt.Sprintf("(v %s %d)", [...]string{"+", "-", "^", "|"}[s%4], 1+rng.Intn(255)),
		fmt.Sprintf("(w %s %d)", [...]string{"<<", ">>"}[s%2], 1+rng.Intn(4)),
		fmt.Sprintf("(v %s w)", [...]string{"&", "^", "+", "-"}[s/4%4]),
	}
	if s < int(genMulShare*genKernels) {
		if s%2 == 0 {
			terms[s%3] = "(v * w)"
		} else {
			terms[s%3] = fmt.Sprintf("(v * %d)", 3+rng.Intn(61))
		}
	}
	return fmt.Sprintf("%s %s %s %s %s", terms[0], [...]string{"+", "^", "-"}[s%3], terms[1],
		[...]string{"+", "^", "|"}[s/3%3], terms[2])
}
