// Command bench is the repository benchmark: it drives the real moaserve
// binary over loopback HTTP (end-to-end mode, -trace 0) or replays the same
// generated operations in process with a span around every call into a
// layer (-trace 1). See README.md for the method and ../BENCHMARK.json for
// the fixed metric and workload names.
//
//	go run -C bench . -seed 7                      # all four workloads
//	go run -C bench . -workload fig9.mix -trace 1  # per-layer numbers
//
// The last line of standard output of every workload run is one JSON object
// {"correct","attempted","failed","metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// dbSeed is the generator seed every server and every oracle is built from:
// -seed varies only the requests (lookup keys, query order, refresh-batch
// seeds), never the stored data.
const dbSeed = 42

// setupRounds is how many times one run sets the server up; setup_s is the
// median. The last set-up serves the timed window.
const setupRounds = 5

// workload fixes everything about one traffic mix except its seed.
type workload struct {
	name    string
	sf      float64
	clients int  // closed-loop reader or ingest clients
	durable bool // served from a -data dir; ends with kill -9 + restart check
}

var workloads = []workload{
	{name: "fig9.mix", sf: 0.02, clients: 1},
	{name: "lookup.adhoc", sf: 0.02, clients: 2},
	{name: "ingest.durable", sf: 0.002, clients: 1, durable: true},
	{name: "mixed.readwrite", sf: 0.02, clients: 1, durable: true},
}

// metric is one reported number; the JSON shape is the driver's contract.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last-line JSON object of one workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run (empty = all four, one after the other)")
	seed := flag.Int64("seed", 1, "request seed: lookup keys, query order and refresh-batch seeds")
	seconds := flag.Int("seconds", 12, "length of the timed window; the traced replay sizes its fixed operation counts from it")
	trace := flag.Int("trace", 0, "0 = end to end against the moaserve binary, tracing off; 1 = in-process replay with per-layer spans")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: want -seconds >= 1, -trace 0|1 and no positional arguments")
		os.Exit(2)
	}
	run := workloads
	if *name != "" {
		run = nil
		for _, w := range workloads {
			if w.name == *name {
				run = []workload{w}
			}
		}
		if run == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}

	// The module lives in <checkout>/bench; everything the benchmark writes
	// goes under <checkout>/.bench_build.
	root, err := filepath.Abs("..")
	if err != nil {
		fatal(err)
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fatal(err)
	}
	fmt.Println(fingerprint(root))

	ok := true
	for _, w := range run {
		var res result
		var err error
		if *trace == 1 {
			res, err = runLayers(w, *seed, *seconds, build)
		} else {
			res, err = runEndToEnd(w, *seed, *seconds, root, build)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// fingerprint describes the host and the code under test, so two result sets
// can be told apart before they are compared.
func fingerprint(root string) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// rank is the index of the exact p-quantile (nearest rank) among n sorted
// samples.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)
}

// quantile reads the p-quantile off raw sorted samples, not off buckets.
func quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

func median(d []time.Duration) time.Duration {
	return quantile(sortDurations(append([]time.Duration(nil), d...)), 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
