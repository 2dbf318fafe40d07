// Command bench is the repository's benchmark: it builds cmd/tastiserve,
// starts it as a child process per workload, drives /query/* and /ingest over
// HTTP, checks every answer against regenerated ground truth, and prints the
// end-to-end metrics — or, traced, the per-layer cost table. BENCHMARK.json
// at the repository root names the workloads, metrics and bounds; README.md
// in this directory is the glossary.
//
//	go run -C bench .                        # all four workloads
//	go run -C bench . -workload mixed_c1     # one
//	go run -C bench . -workload mixed_c1 -trace 1 -out spans.jsonl
//	go run -C bench . -repeat 5              # noise calibration
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics, for the last workload run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/tasti"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int // 0 or 1: the driver passes "--trace 0", which a bool flag cannot parse
	scale    string
	repeat   int
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (empty runs all): mixed_c1, mixed_c2, bigcorpus_light_c1, ingest_crack_c2")
	flag.Int64Var(&o.seed, "seed", 1, "seeds the order of the requests; the corpus and the ingested records are fixed")
	flag.IntVar(&o.seconds, "seconds", 12, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the traced pass, the in-process layer replay and the fixed probes, and reports the per-layer metrics")
	flag.StringVar(&o.scale, "scale", "full", "full, or smoke (tiny corpora for the harness's own test; not a measurement)")
	flag.IntVar(&o.repeat, "repeat", 1, "run each workload this many times and print median, min, max and relative range per metric")
	flag.StringVar(&o.out, "out", "", "with -trace 1, write the replay's spans to this file as JSON lines")
	flag.Parse()
	// Ctrl-C and SIGTERM cancel the run; every child is killed and reaped by
	// its deferred kill before main returns.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Stdout, o)
	cancel()
	os.Exit(code)
}

// result is the object the driver reads from the last line of stdout.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(ctx context.Context, w io.Writer, o options) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	sc, ok := scales[o.scale]
	if !ok {
		return fail(fmt.Errorf("unknown -scale %q", o.scale))
	}
	if o.seconds < 1 || o.repeat < 1 {
		return fail(fmt.Errorf("-seconds and -repeat must be at least 1"))
	}
	trace := o.trace != 0
	selected := workloads
	if o.workload != "" {
		wl, ok := findWorkload(o.workload)
		if !ok {
			return fail(fmt.Errorf("unknown -workload %q", o.workload))
		}
		selected = []workload{wl}
	}
	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	bin, err := buildServer(ctx, root)
	if err != nil {
		return fail(err)
	}
	header(w, root, o.seed, o.seconds, sc)

	code := 0
	var last result
	for _, wl := range selected {
		rule(w, wl.Name)
		fmt.Fprintf(w, "  why: %s\n", wl.Why)
		names := endToEndNames
		if trace {
			names = perLayerNames
		}
		var runs []metrics
		last = result{Correct: true}
		for i := 0; i < o.repeat; i++ {
			res, err := runWorkload(ctx, runConfig{
				root: root, bin: bin, w: wl, sc: sc, seed: o.seed,
				seconds: time.Duration(o.seconds) * time.Second, trace: trace, out: o.out, log: w,
			})
			if err != nil {
				return fail(fmt.Errorf("%s: %w", wl.Name, err))
			}
			for _, p := range res.problems {
				fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
			}
			last.Correct = last.Correct && res.correct()
			last.Attempted += res.attempted
			last.Failed += res.failed
			if trace {
				fmt.Fprintln(w, "  end-to-end metrics of the untraced pass:")
				res.endToEnd.print(w, endToEndNames)
				fmt.Fprintln(w, "  per-layer metrics:")
				runs = append(runs, res.perLayer)
			} else {
				runs = append(runs, res.endToEnd)
			}
			runs[i].print(w, names)
		}
		last.Metrics = runs[0]
		if o.repeat > 1 {
			fmt.Fprintf(w, "  %d runs:\n", o.repeat)
			last.Metrics = printRepeats(w, runs, names)
		}
		if !last.Correct {
			code = 1
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(w, "%s\n", line)
	return code
}

// header records what produced the numbers below it.
func header(w io.Writer, root string, seed int64, seconds int, sc scale) {
	commit := "unknown (not a git checkout)"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Fprintf(w, "tasti bench: commit %s, nproc %d, GOMAXPROCS %d, %s, kernel %s\n",
		commit, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), tasti.KernelName())
	fmt.Fprintf(w, "  scale %s, seed %d, window %d s\n", sc.name, seed, seconds)
	fmt.Fprintf(w, "  tastiserve %s -size N -reps R -snapshot DIR/ix.snap -wal-dir DIR/wal -addr 127.0.0.1:PORT\n",
		strings.Join(serverFlags, " "))
}
