// Command perfbench is lppart's benchmark. One run sets up one workload
// from a seed, measures it for a fixed time, checks every output, and
// prints its metrics, the last line as one JSON object:
//
//	perfbench --workload table1 --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced
// and a traced phase and reports the per-layer metrics, writing the
// spans under .bench_build/spans. --workload all runs every workload in
// its own process. Two ledgers written with --out compare as
//
//	perfbench --compare parent.jsonl change.jsonl
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// buildDir holds everything a run leaves behind, relative to the
// checkout root the benchmark runs from.
const buildDir = ".bench_build"

// benchCPUs is how many CPUs the benchmark's load and the system under
// test share.
const benchCPUs = 2

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, options) (*result, error){
	"table1": func(ctx context.Context, o options) (*result, error) {
		return runClosed(ctx, o, setupTable1)
	},
	"search": func(ctx context.Context, o options) (*result, error) {
		return runClosed(ctx, o, setupSearch)
	},
	"serve-partition": runServePartition,
	"serve-jobs": func(ctx context.Context, o options) (*result, error) {
		return runClosed(ctx, o, setupServeJobs)
	},
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"table1", "search", "serve-partition", "serve-jobs"}

//go:embed testdata/golden.json
var goldenJSON []byte

// golden holds the committed reference outputs: the bit-exact Table 1
// rows and each workload's output digest at seed 1.
var golden = func() (g struct {
	Table1 []string          `json:"table1"`
	Seed1  map[string]string `json:"seed1_digests"`
}) {
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("perfbench: testdata/golden.json: " + err.Error())
	}
	return g
}()

func main() {
	var o options
	var traceN int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&o.seconds, "seconds", 25, "measured time of one run")
	flag.IntVar(&traceN, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.IntVar(&o.ops, "ops", 0, "run this many ops per phase instead of -seconds (smoke runs)")
	out := flag.String("out", "", "append the run's result to this JSON-lines ledger")
	compare := flag.Bool("compare", false, "compare two ledgers: -compare PARENT.jsonl CHANGE.jsonl")
	benchFile := flag.String("benchmark", "BENCHMARK.json", "-compare: the file holding the metrics' bounds")
	flag.Parse()
	o.trace = traceN == 1

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two ledgers")
		}
		ok, err := compareLedgers(os.Stdout, *benchFile, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if o.workload == "all" {
		os.Exit(runAll())
	}
	run, ok := workloads[o.workload]
	if !ok {
		fatalf("unknown workload %q (want %s or all)", o.workload, strings.Join(workloadOrder, ", "))
	}
	runtime.GOMAXPROCS(benchCPUs)
	res, err := run(context.Background(), o)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	if want, ok := golden.Seed1[o.workload]; ok && o.seed == 1 && res.digest != want {
		res.problems = append(res.problems, fmt.Sprintf("outputs_sha256 %s, golden %s", res.digest, want))
	}
	if !report(os.Stdout, o, res) {
		os.Exit(1)
	}
	if *out != "" {
		if err := appendLedger(*out, o, res); err != nil {
			fatalf("%v", err)
		}
	}
}

// line is the JSON object every run prints last.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricLine `json:"metrics"`
}

type metricLine struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// units maps every declared metric, and the printed-only op_ms_p90, to
// its unit.
var units = func() map[string]string {
	u := map[string]string{"op_ms_p90": "ms"}
	for _, d := range append(append([]metricDef(nil), e2eMetrics...), layerMetrics...) {
		u[d.name] = d.unit
	}
	return u
}()

func (r *result) line() line {
	l := line{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricLine, len(r.metrics))}
	for _, m := range r.metrics {
		l.Metrics[m.Name] = metricLine{Value: m.Value, Unit: units[m.Name]}
	}
	return l
}

// report prints the run's metrics, one per line with unit (and sample
// count for percentiles), then the JSON line. A percentile with too few
// samples beyond it is printed as missing and fails the run: report
// then prints no JSON line and returns false.
func report(w io.Writer, o options, res *result) bool {
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%g trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "outputs_sha256 %s\n", res.digest)
	for _, p := range res.problems {
		fmt.Fprintf(w, "check failed: %s\n", p)
	}
	complete := true
	for _, m := range res.metrics {
		switch {
		case m.Missing:
			complete = false
			fmt.Fprintf(w, "%-26s missing (n=%d, fewer than %d samples beyond it)\n", m.Name, m.N, minBeyond)
		case m.N > 0:
			fmt.Fprintf(w, "%-26s %14.6g %-9s (n=%d)\n", m.Name, m.Value, units[m.Name], m.N)
		default:
			fmt.Fprintf(w, "%-26s %14.6g %s\n", m.Name, m.Value, units[m.Name])
		}
	}
	for _, m := range res.info {
		switch {
		case m.Missing:
			fmt.Fprintf(w, "%-26s missing (n=%d, not in the ledger)\n", m.Name, m.N)
		case m.N > 0:
			fmt.Fprintf(w, "%-26s %14.6g %-9s (n=%d, not in the ledger)\n", m.Name, m.Value, units[m.Name], m.N)
		default:
			fmt.Fprintf(w, "%-26s %14.6g %-9s (not in the ledger)\n", m.Name, m.Value, units[m.Name])
		}
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %t\n", res.attempted, res.failed, res.correct())
	if !complete {
		return false
	}
	b, err := json.Marshal(res.line())
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(w, "%s\n", b)
	return res.correct()
}

// ledgerEntry is one run in a --out ledger.
type ledgerEntry struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	line
}

func appendLedger(path string, o options, res *result) error {
	e := ledgerEntry{Workload: o.workload, Seed: o.seed, Trace: o.trace, line: res.line()}
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close() //lint:err the write error is the one to report
		return err
	}
	return f.Close()
}

// runAll runs every workload in its own process with this run's flags
// and prints each one's metrics; it fails if any run fails.
func runAll() int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	code := 0
	for _, name := range workloadOrder {
		args := []string{"-workload", name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name+"="+f.Value.String())
			}
		})
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &buf, os.Stderr
		err := cmd.Run()
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			if t := sc.Text(); !strings.HasPrefix(t, "{") {
				fmt.Printf("%-16s %s\n", name, t)
			}
		}
		if err != nil {
			fmt.Printf("%-16s FAILED: %v\n", name, err)
			code = 1
		}
	}
	return code
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", a...)
	os.Exit(1)
}
