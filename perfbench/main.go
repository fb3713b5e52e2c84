// Command perfbench is the repository's benchmark: three W-BOX workloads
// over a generated XMark document, driven through the public APIs of the
// core, pager and serve layers. Every answer is checked. An untraced run
// reports the end-to-end metrics; a traced run (--trace 1) reports the
// per-layer metrics and writes a Perfetto-loadable span trace.
//
//	perfbench --workload xmark-read --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is non-zero when any answer was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
)

// config is one run's parameters. elements, ops and setups exist for the
// self-test; the command line sets the rest.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string

	elements int // XMark document size
	ops      int // when > 0, a fixed operation budget instead of seconds
	setups   int // set-ups timed for setup_s (the last one is measured)
}

type metric struct {
	name  string
	unit  string
	value float64
}

// result is what a run reports.
type result struct {
	e2e       []metric
	layer     []metric
	attempted int
	failed    int
	wrong     []string // the first few wrong answers
	notes     []string
}

func (r *result) add(e2e bool, name, unit string, v float64) {
	m := metric{name: name, unit: unit, value: v}
	if e2e {
		r.e2e = append(r.e2e, m)
	} else {
		r.layer = append(r.layer, m)
	}
}

// check counts one answer, recording it as wrong when err is non-nil.
func (r *result) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.wrong) < 10 {
			r.wrong = append(r.wrong, err.Error())
		}
	}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config, *tracer) (*result, error){
	"xmark-read":   runRead,
	"xmark-update": runUpdate,
	"served-mixed": runServed,
}

func main() {
	cfg := config{elements: 200_000, setups: 5}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "xmark-read | xmark-update | served-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: every operation stream derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&cfg.workdir, "workdir", ".", "directory for store files and the trace")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	res, err := execute(cfg, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, w := range res.wrong {
		fmt.Println("WRONG:", w)
	}
	line, err := summary(res, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if res.failed > 0 {
		os.Exit(1)
	}
}

// execute runs one workload and adds the report lines every run prints.
func execute(cfg config, run func(config, *tracer) (*result, error)) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	res, err := run(cfg, tr)
	if err != nil {
		return nil, err
	}
	head := fmt.Sprintf("perfbench workload=%s seed=%d elements=%d seconds=%v trace=%v %s",
		cfg.workload, cfg.seed, cfg.elements, cfg.seconds, cfg.trace, env(cfg.workdir))
	res.notes = append([]string{head}, res.notes...)
	for _, m := range append(slices.Clone(res.e2e), res.layer...) {
		res.notef("%-28s %14.4f %s", m.name, m.value, m.unit)
	}
	res.notef("%-28s %14.6f ratio (%d of %d)", "failed_frac", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	return res, nil
}

// summary renders the result line: the end-to-end metrics of an untraced
// run, or the per-layer metrics of a traced one.
func summary(res *result, traced bool) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := res.e2e
	if traced {
		ms = res.layer
	}
	out := map[string]val{}
	for _, m := range ms {
		out[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, out})
	return string(b), err
}
