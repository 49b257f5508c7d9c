// Command perfbench is hoiho's end-to-end benchmark. It drives the
// real serving stack (3 hoihod nodes behind a hoihoc router over
// loopback TCP), the two-phase rollout path and the learner through
// four workloads, checks every answer against an oracle, and prints
// one JSON result line. See README.md.
//
//	perfbench -workload lookup -seed 1 -seconds 10 -trace 0
//
// The command runs as three kinds of process: this orchestrator, a
// host that runs the system under test ("perfbench host"), and a
// generator that loads it ("perfbench gen"). Set-up boots the host
// several times and reports the median boot.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeed = 1
	setupBoots  = 5                 // host boots per run; setup_s is their median
	runLimit    = 170 * time.Second // the whole run, children included
)

var workloads = []string{"lookup", "batch", "rollout", "learn"}

func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "host" {
		err = hostMain(os.Args[2:])
	} else if len(os.Args) > 1 && os.Args[1] == "gen" {
		err = genMain(os.Args[2:])
	} else {
		err = orchestrate(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type runFlags struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func orchestrate(args []string) error {
	var f runFlags
	var trace int
	fs := newFlagSet("perfbench")
	fs.StringVar(&f.workload, "workload", "lookup", "workload: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&f.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&f.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f.trace = trace == 1
	if !slices.Contains(workloads, f.workload) {
		return fmt.Errorf("unknown workload %q (want one of %s)", f.workload, strings.Join(workloads, ", "))
	}
	if f.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	res, err := runWorkload(ctx, f, dir)
	if err != nil {
		return err
	}
	return res.print(os.Stdout)
}

// child is a running perfbench subprocess speaking lines on stdio.
type child struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

func startChild(ctx context.Context, args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	// A child must not outlive the orchestrator.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	return &child{cmd: cmd, in: in, out: sc}, nil
}

// line reads the child's next stdout line.
func (c *child) line() (string, error) {
	if c.out.Scan() {
		return c.out.Text(), nil
	}
	if err := c.out.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s exited early", c.cmd.Args[1])
}

func (c *child) send(cmd string) error {
	_, err := fmt.Fprintln(c.in, cmd)
	return err
}

// wait closes the child's stdin and waits for it to exit.
func (c *child) wait() error {
	c.in.Close()
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("%s: %w", c.cmd.Args[1], err)
	}
	return nil
}

// result is one run's merged outcome.
type result struct {
	f       runFlags
	setup   []float64 // seconds per host boot
	host    report
	gen     report
	layer   map[string]float64
	notes   []string
	machine map[string]any
}

func runWorkload(ctx context.Context, f runFlags, dir string) (*result, error) {
	res := &result{f: f, machine: machineStamp()}
	hostArgs := func(boot int) []string {
		d := filepath.Join(dir, "boot"+strconv.Itoa(boot))
		return []string{"host", "-workload", f.workload, "-seed", strconv.FormatUint(f.seed, 10),
			"-seconds", strconv.FormatFloat(f.seconds, 'f', -1, 64), "-trace=" + strconv.FormatBool(f.trace), "-dir", d}
	}
	var host *child
	var ready string
	for boot := 0; boot < setupBoots; boot++ {
		if err := os.MkdirAll(filepath.Join(dir, "boot"+strconv.Itoa(boot)), 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		h, err := startChild(ctx, hostArgs(boot)...)
		if err != nil {
			return nil, err
		}
		if ready, err = h.line(); err != nil {
			h.wait()
			return nil, fmt.Errorf("host boot: %w", err)
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		if boot < setupBoots-1 {
			h.send("quit")
			if err := h.wait(); err != nil {
				return nil, err
			}
			continue
		}
		host = h
	}
	runDir := filepath.Join(dir, "boot"+strconv.Itoa(setupBoots-1))

	ops := 0
	if f.workload != "learn" {
		g, err := startChild(ctx, "gen", "-workload", f.workload, "-seed", strconv.FormatUint(f.seed, 10),
			"-seconds", strconv.FormatFloat(f.seconds, 'f', -1, 64), "-trace="+strconv.FormatBool(f.trace),
			"-dir", runDir, "-ready", ready)
		if err != nil {
			host.wait()
			return nil, err
		}
		genErr := func() error {
			line, err := g.line()
			if err != nil {
				return err
			}
			if line != "started" {
				return fmt.Errorf("gen: unexpected line %q", line)
			}
			if err := host.send("mark"); err != nil {
				return err
			}
			if line, err = host.line(); err != nil || line != "marked" {
				return fmt.Errorf("host did not mark: %q %v", line, err)
			}
			if err := g.send("go"); err != nil {
				return err
			}
			if line, err = g.line(); err != nil {
				return err
			}
			return json.Unmarshal([]byte(line), &res.gen)
		}()
		if err := g.wait(); err != nil && genErr == nil {
			genErr = err
		}
		if genErr != nil {
			host.wait()
			return nil, fmt.Errorf("generator: %w", genErr)
		}
		ops = res.gen.Ops
	}
	hostErr := func() error {
		if err := host.send("finish " + strconv.Itoa(ops)); err != nil {
			return err
		}
		line, err := host.line()
		if err != nil {
			return err
		}
		return json.Unmarshal([]byte(line), &res.host)
	}()
	if err := host.wait(); err != nil && hostErr == nil {
		hostErr = err
	}
	if hostErr != nil {
		return nil, fmt.Errorf("host: %w", hostErr)
	}
	if f.trace {
		if err := res.analyze(runDir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// e2eMetrics are the end-to-end metrics every workload reports, with
// their units; BENCHMARK.json declares the same list.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
}

// namedUnits are the units of the per-workload named metrics printed
// beside the result.
var namedUnits = map[string]string{
	"lookup_p50_ms": "ms", "lookup_p99_ms": "ms", "lookup_rps": "1/s",
	"batch_hosts_per_s": "hosts/s", "batch_p50_ms": "ms", "batch_p99_ms": "ms",
	"epoch_p50_ms": "ms", "epoch_p90_ms": "ms", "learn_s": "s",
	"setup_s": "s", "rss_peak_mb": "MB", "fail_frac": "ratio", "cpu_ms_per_op": "ms",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) print(w io.Writer) error {
	rep := r.host
	if r.f.workload != "learn" {
		rep = r.gen
		rep.Failed += r.host.Failed
		rep.Wrong += r.host.Wrong
		rep.Errors = append(rep.Errors, r.host.Errors...)
		rep.Notes = append(rep.Notes, r.host.Notes...)
	}
	rep.Notes = append(rep.Notes, r.notes...)
	e2e := map[string]float64{"setup_s": median(r.setup)}
	for k, v := range r.host.E2E {
		e2e[k] = v
	}
	for k, v := range rep.E2E {
		e2e[k] = v
	}
	named := map[string]float64{
		"setup_s":       e2e["setup_s"],
		"rss_peak_mb":   e2e["rss_peak_mb"],
		"cpu_ms_per_op": e2e["cpu_ms_per_op"],
		"fail_frac":     float64(rep.Failed) / float64(max(rep.Attempted, 1)),
	}
	for k, v := range rep.Named {
		named[k] = v
	}

	stamp, _ := json.Marshal(r.machine)
	fmt.Fprintf(w, "machine: %s\n", stamp)
	if rep.Gen != nil {
		g, _ := json.Marshal(rep.Gen)
		fmt.Fprintf(w, "generator: %s\n", g)
	}
	fmt.Fprintf(w, "setup boots (s): %v\n", r.setup)
	for _, k := range sortedKeys(named) {
		fmt.Fprintf(w, "%-18s %12.4f %s\n", k, named[k], namedUnits[k])
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(w, "error:", e)
	}

	metrics := map[string]metric{}
	if r.f.trace {
		for _, m := range layerMetrics {
			metrics[m.name] = metric{Value: r.layer[m.name], Unit: m.unit}
		}
	} else {
		for _, m := range e2eMetrics {
			metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Failed == 0, max(rep.Attempted, 1), rep.Failed, metrics}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
