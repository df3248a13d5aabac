// Command pipebench is the repository's benchmark: it runs full rounds of
// the report pipeline — device Report, closed-loop mega-batch TCP ingest
// into an in-process aggregation server with ack-coupled durable
// checkpoints, then Identify — and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 untraced and traced rounds alternate, the metrics are the
// per-layer ones, and every traced span is written to --spans at exit.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash pipebench/run.sh --workload pes_round --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// extraSetups are set-up cycles run before the rounds, so setup_s is a
// median over several set-ups even when only a few rounds fit.
const extraSetups = 4

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	shrink   int    // divides n and the checkpoint cadence by 2^shrink (smoke tests)
	spans    string // traced spans are written here
	root     string // repository root, for the source digest
}

func parseFlags(args []string) (config, error) {
	var cfg config
	var trace int
	fset := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fset.StringVar(&cfg.workload, "workload", "", "workload name")
	fset.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fset.Float64Var(&cfg.seconds, "seconds", 10, "measure rounds for at least this long")
	fset.IntVar(&trace, "trace", 0, "1 runs traced rounds and reports per-layer metrics")
	fset.StringVar(&cfg.spans, "spans", "", "file for the traced spans (default .bench_build/spans/<workload>-<seed>.json)")
	fset.StringVar(&cfg.root, "root", ".", "repository root")
	if err := fset.Parse(args); err != nil {
		return cfg, err
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		return cfg, errors.New("--seconds must be positive")
	}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(2)
	}
	ok, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run measures one workload and prints its report; it returns whether
// every check passed. An error means no result could be produced.
func run(cfg config, out io.Writer) (bool, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp("", "pipebench-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)

	p, err := newPipeline(w, cfg.seed, cfg.shrink, tmp)
	if err != nil {
		return false, err
	}
	n := p.n

	var all checks
	var setups []time.Duration
	for i := 0; i < extraSetups; i++ {
		s, d, err := p.setup(context.Background())
		if err == nil {
			err = s.close()
		}
		all.add(err)
		if err != nil {
			return false, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d)
	}

	var untraced, traced []*roundResult
	start := time.Now()
	for r := 0; ; r++ {
		isTraced := cfg.trace && r%2 == 1
		res, err := p.run(r, isTraced)
		all.merge(res.checks)
		if err != nil {
			fmt.Fprintf(out, "round %d failed: %v\n", r, err)
			break
		}
		fmt.Fprintf(out, "round %d traced=%t setup_s=%.4f round_s=%.4f device_s=%.4f ingest_s=%.4f identify_ms=%.3f\n",
			r, isTraced, res.setup.Seconds(), res.round.Seconds(), res.device.Seconds(), res.ingest.Seconds(), ms(res.identify))
		if isTraced {
			traced = append(traced, res)
		} else {
			untraced = append(untraced, res)
			setups = append(setups, res.setup)
		}
		// Stop when one more round would end further past the measuring
		// time than stopping now falls short of it.
		elapsed := time.Since(start)
		cycle := elapsed / time.Duration(r+1)
		if (elapsed+cycle/2).Seconds() >= cfg.seconds && (!cfg.trace || len(traced) > 0) {
			break
		}
	}

	fmt.Fprintf(out, "pipebench workload=%s seed=%d seconds=%g trace=%t n=%d rounds=%d traced=%d\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, n, len(untraced), len(traced))
	env := environment(cfg, p)
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%s\n", envLine)

	metrics := make(map[string]map[string]any)
	if len(untraced) > 0 {
		e2e := endToEndValues(untraced, setups, all, n)
		for _, def := range endToEnd {
			v := e2e[def.name]
			fmt.Fprintf(out, "metric %-22s %14.6g %-5s %s\n", def.name, v.value, def.unit, v.note)
			if !cfg.trace {
				metrics[def.name] = map[string]any{"value": v.value, "unit": def.unit}
			}
		}
		for _, name := range []string{"query_p50_ms", "query_p99_ms"} {
			if v, ok := e2e[name]; ok {
				fmt.Fprintf(out, "metric %-22s %14.6g %-5s %s\n", name, v.value, "ms", v.note)
			} else {
				fmt.Fprintf(out, "metric %-22s %14s %-5s no queries on this workload\n", name, "n/a", "ms")
			}
		}
		v := e2e["failed_frac"]
		fmt.Fprintf(out, "metric %-22s %14.6g %-5s %s\n", "failed_frac", v.value, "frac", v.note)
	}
	if cfg.trace && len(traced) > 0 {
		layers := layerValues(traced, untraced, n, p.frameLen)
		// The per-layer self times must account for the round's wall time.
		if u := layers["trace.unattributed_frac"].value; u > 0.10 {
			all.add(fmt.Errorf("traced spans leave %.1f%% of round_s unattributed (limit 10%%)", 100*u))
		}
		var spans []span
		for _, r := range traced {
			spans = append(spans, r.spans...)
		}
		if err := writeSpans(cfg.spans, spans); err != nil {
			return false, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "spans %d written to %s\n", len(spans), cfg.spans)
		for _, def := range perLayer {
			v := layers[def.name]
			fmt.Fprintf(out, "layer %-31s %14.6g %-5s moves %s on %s; %s\n",
				def.name, v.value, def.unit, strings.Join(def.moves, ","), def.on, v.note)
			metrics[def.name] = map[string]any{"value": v.value, "unit": def.unit}
		}
	}
	for _, e := range all.errs {
		fmt.Fprintf(out, "check failed: %s\n", e)
	}
	correct := all.failed == 0 && len(untraced) > 0 && (!cfg.trace || len(traced) > 0)
	result, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": max(all.attempted, 1), "failed": all.failed, "metrics": metrics,
	})
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%s\n", result)
	return correct, nil
}

// environment records what a result depends on besides the code: the
// machine, the toolchain, the source and the workload parameters.
func environment(cfg config, p *pipeline) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	params := map[string]any{
		"n": p.n, "batch_reports": batchReports, "ingest_conns": ingestConns,
		"generator_goroutines": p.gens, "checkpoint_every": p.cadence,
		"checkpoint_interval": 0, "shrink": cfg.shrink,
		"recovery_floor": p.floor, "recall_base": len(p.heavy),
	}
	for k, v := range p.w.params {
		params[k] = v
	}
	return map[string]any{
		"workload": p.w.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"commit": commit, "source_sha256": sourceDigest(cfg.root),
		"params": params,
	}
}

// sourceDigest hashes every Go source and module file under root (hidden
// directories skipped), identifying the code under test where no version
// control metadata is available.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return "unavailable: " + err.Error()
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(buf))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}
