// Command perfbench is the repository's benchmark. It runs one workload
// in its own process and prints every metric by name and unit; the last
// line of standard output is the result object
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, with -trace 1 the
// per-layer ones. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the workload seed the golden digests are recorded for.
const defaultSeed = 1

// A run makes at least minRounds rounds, the first a warm-up, and
// minOps timed ops, whatever its time budget: setup_s is a median over
// rounds, the digest check needs a repeat, the traced run alternates
// traced and untraced rounds, and op_p90_ms needs ten ops beyond it.
const (
	minRounds = 4
	minOps    = 100
)

// setupReps is how many times a round builds its inputs, each time
// timed; the ops run on the last build. It gives setup_s, a median,
// more samples than a run has rounds.
const setupReps = 3

//go:embed golden.json
var goldenJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload: paper-load or scale-l")
	seed := flags.Uint64("seed", defaultSeed, "workload seed; every input is drawn from it")
	seconds := flags.Float64("seconds", 40, "time budget of the run in seconds (it makes at least four rounds)")
	trace := flags.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	writeGolden := flags.String("write-golden", "", "record the workload's per-op digests at -seed into this golden file")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload %s, -trace 0|1 and -seconds > 0\n", workloadNames())
		flags.Usage()
		return 2
	}
	// One goroutine drives the simulator. With one P the collector runs
	// on that thread too, instead of racing the simulator for a shared
	// core on a two-CPU box, which halved the run-to-run spread there.
	runtime.GOMAXPROCS(1)
	golden, err := parseGolden(goldenJSON)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		w: w, seed: *seed, size: fullSize,
		budget: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
	}
	if *seed == golden.Seed {
		cfg.golden = golden.Workloads[w.name]
	}
	res, err := measure(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if *writeGolden != "" {
		if err := recordGolden(*writeGolden, *seed, w.name, res.opDigests); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	report(stdout, cfg, res)
	return 0
}

// report prints every metric by name and unit, then a line with the
// digest, sample counts and box record, then the result object.
func report(w io.Writer, cfg config, res *result) {
	for _, m := range res.metrics {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	info := map[string]any{
		"workload":    cfg.w.name,
		"seed":        cfg.seed,
		"traced":      cfg.trace,
		"digest":      hex16(res.digest),
		"golden":      res.goldenState,
		"ops":         res.attempted,
		"timed_ops":   res.timedOps,
		"rounds":      res.rounds,
		"ops_per_mix": len(res.opDigests),
		"box":         boxRecord(),
	}
	if res.latency != nil {
		info["latency_cycles"] = res.latency
	}
	printJSON(w, info)
	metrics := make(map[string]any, len(res.metrics))
	for _, m := range res.metrics {
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	printJSON(w, map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of numbers and strings always marshal
	}
	fmt.Fprintln(w, string(b))
}

func hex16(v uint64) string { return fmt.Sprintf("%016x", v) }

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// config is one run's settings.
type config struct {
	w      workload
	seed   uint64
	size   size
	budget time.Duration
	trace  bool
	// golden holds the recorded per-op digests for this seed, or nil.
	golden []string
}

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	attempted, failed int
	rounds            int
	timedOps          int // ops whose times the metrics use
	digest            uint64
	opDigests         []string
	goldenState       string // "match", "mismatch" or "none"
	peakRSS           float64
	// latency is the paper-load latency summary; see latencySummary.
	latency map[string][2]int64
	metrics []metric
}

// measure runs whole rounds until the budget is spent. A round builds
// the inputs setupReps times, each build timed as set-up, and then runs
// every op of the mix once, each op timed. Interleaving the set-ups with the ops samples both
// across the whole run, so a slow spell of a shared machine moves
// neither median alone. Round 0 warms the process up: its digests are
// recorded and checked, but its times are left out of every metric.
func measure(cfg config) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res := &result{}
	var (
		acc        roundCounts
		lat        = map[string][2]float64{}
		setupTimes []float64
		opTimes    []float64
		// Op-phase totals of untraced (0) and traced (1) rounds.
		hops, wall [2]float64
		gcBefore   gcStats
	)
	start := time.Now()
	for round := 0; round < minRounds || len(opTimes) < minOps || time.Since(start) < cfg.budget; round++ {
		warm := round == 0
		if round == 1 {
			gcBefore = readGC()
		}
		var rt *tracer
		traced := 0
		if cfg.trace && round%2 == 1 {
			rt, traced = tr, 1
		}
		// Each phase starts from a collected heap returned to the OS, as
		// in a fresh process, rather than from whatever the background
		// scavenger has released since the last phase.
		var ops []op
		for rep := 0; rep < setupReps; rep++ {
			ops = nil
			debug.FreeOSMemory()
			s := rt.begin("setup", "")
			t0 := time.Now()
			var err error
			ops, err = cfg.w.setup(cfg.seed, cfg.size, rt)
			dt := time.Since(t0).Seconds()
			rt.end(s)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			if !warm {
				setupTimes = append(setupTimes, dt)
			}
		}
		if warm {
			res.opDigests = make([]string, len(ops))
		}
		debug.FreeOSMemory()
		for i, o := range ops {
			s := rt.begin("op", o.scheme)
			t0 := time.Now()
			out, err := o.run(rt)
			dt := time.Since(t0).Seconds()
			rt.end(s)
			if !warm {
				opTimes = append(opTimes, dt)
				wall[traced] += dt
				hops[traced] += float64(out.stats.FlitHops)
			}
			res.attempted++
			ok := err == nil && i < len(res.opDigests)
			if ok {
				d := hex16(out.digest)
				if warm {
					res.opDigests[i] = d
					acc.add(out)
					if o.cell != "" {
						l := lat[o.cell]
						lat[o.cell] = [2]float64{l[0] + out.lat[0], l[1] + out.lat[1]}
					}
				}
				// A digest that does not repeat fails on every seed; the
				// golden table covers only the seed it was recorded at.
				ok = d == res.opDigests[i] && (cfg.golden == nil || i < len(cfg.golden) && cfg.golden[i] == d)
			}
			if !ok {
				res.failed++
			}
		}
		res.rounds++
		if res.rounds == minRounds {
			// Read after a fixed amount of work, so later rounds, whose
			// number depends on the box's speed, cannot move it.
			res.peakRSS = peakRSSMB()
		}
	}
	res.goldenState = "none"
	if cfg.golden != nil {
		res.goldenState = "match"
		if strings.Join(cfg.golden, ",") != strings.Join(res.opDigests, ",") {
			res.goldenState = "mismatch"
		}
	}
	h := fnv.New64a()
	for _, d := range res.opDigests {
		h.Write([]byte(d))
	}
	res.digest = h.Sum64()
	res.latency = latencySummary(lat, cfg.size.loadTopos)
	res.timedOps = len(opTimes)

	if !cfg.trace {
		res.metrics = []metric{
			{"setup_s", median(setupTimes), "s"},
			{"flit_hops_per_s", hops[0] / wall[0], "1/s"},
			{"op_p50_ms", quantile(opTimes, 0.5) * 1e3, "ms"},
			{"op_p90_ms", quantile(opTimes, 0.9) * 1e3, "ms"},
			{"peak_rss_mb", res.peakRSS, "MB"},
		}
		return res, nil
	}
	timed := res.rounds - 1
	res.metrics = layerMetrics(tr, (timed+1)/2, timed, acc, readGC().minus(gcBefore))
	overhead := 0.0
	if hops[1] > 0 && hops[0] > 0 {
		overhead = (hops[0]/wall[0])/(hops[1]/wall[1]) - 1
	}
	res.metrics = append(res.metrics, metric{"trace.overhead", overhead, "ratio"})
	return res, nil
}

// latencySummary turns per-cell sums of the first- and last-quarter mean
// latencies over cellsPer ops into rounded per-cell means, in cycles. It
// shows which paper-load cells run past saturation: there the last
// quarter of the arrivals waits far longer than the first.
func latencySummary(sums map[string][2]float64, cellsPer int) map[string][2]int64 {
	if len(sums) == 0 {
		return nil
	}
	out := make(map[string][2]int64, len(sums))
	for c, s := range sums {
		out[c] = [2]int64{int64(s[0]/float64(cellsPer) + 0.5), int64(s[1]/float64(cellsPer) + 0.5)}
	}
	return out
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// boxRecord identifies the machine and build a result came from; numbers
// from different boxes are not comparable.
func boxRecord() map[string]any {
	rec := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			rec["commit"] = rev + dirty
		}
	}
	return rec
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// goldenFile is golden.json: per-op digests of every workload at one
// seed, at full size. They are self-references recorded from this
// simulator, not measurements of real hardware.
type goldenFile struct {
	Seed      uint64              `json:"seed"`
	Workloads map[string][]string `json:"workloads"`
}

func parseGolden(b []byte) (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return g, fmt.Errorf("golden digests: %w", err)
	}
	if g.Workloads == nil {
		g.Workloads = map[string][]string{}
	}
	return g, nil
}

// recordGolden stores one workload's per-op digests in the golden file
// at path, keeping the other workloads it holds at the same seed.
func recordGolden(path string, seed uint64, name string, digests []string) error {
	g := goldenFile{Seed: seed, Workloads: map[string][]string{}}
	if b, err := os.ReadFile(path); err == nil {
		if g, err = parseGolden(b); err != nil {
			return err
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if g.Seed != seed {
		for w := range g.Workloads {
			if w != name {
				return fmt.Errorf("write-golden: %s holds %s at seed %d, not %d", path, w, g.Seed, seed)
			}
		}
		g = goldenFile{Seed: seed, Workloads: map[string][]string{}}
	}
	g.Workloads[name] = digests
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
