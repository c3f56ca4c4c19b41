package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check
// against: every metric it names must be printed with its unit.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

type printed struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// tinyRun measures w at tiny size for the minimum number of rounds and
// returns the result and its printed last line, decoded.
func tinyRun(t *testing.T, w workload, seed uint64, trace bool, golden []string) (*result, printed) {
	t.Helper()
	cfg := config{w: w, seed: seed, size: tinySize, budget: 1, trace: trace, golden: golden}
	res, err := measure(cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	var buf bytes.Buffer
	report(&buf, cfg, res)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var p printed
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		t.Fatalf("%s: last line %q: %v", w.name, lines[len(lines)-1], err)
	}
	return res, p
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	spec := loadSpec(t)
	for _, sw := range spec.Workloads {
		if _, ok := findWorkload(sw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", sw.Name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			_, p := tinyRun(t, w, defaultSeed, trace, nil)
			if !p.Correct || p.Failed != 0 || p.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, p.Correct, p.Attempted, p.Failed)
			}
			if len(p.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json lists %d", w.name, trace, len(p.Metrics), len(want))
			}
			if c := p.Metrics["trace.op_coverage"]; trace && c.Value < 0.95 {
				t.Errorf("%s: child spans cover %.3f of op time, want >= 0.95", w.name, c.Value)
			}
			for _, m := range want {
				got, ok := p.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v, want unit %q", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestDigestRepeatsAndFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, _ := tinyRun(t, w, defaultSeed, false, nil)
		b, _ := tinyRun(t, w, defaultSeed, false, nil)
		c, _ := tinyRun(t, w, defaultSeed+1, false, nil)
		if a.digest != b.digest {
			t.Errorf("%s: digest %x then %x at one seed", w.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds %d and %d share digest %x", w.name, defaultSeed, defaultSeed+1, a.digest)
		}
		if a.failed != 0 || b.failed != 0 || c.failed != 0 {
			t.Errorf("%s: failed ops %d/%d/%d", w.name, a.failed, b.failed, c.failed)
		}
	}
}

func TestFailedOpsCounted(t *testing.T) {
	w, _ := findWorkload("paper-load")
	broken := workload{name: w.name, setup: func(seed uint64, sz size, tr *tracer) ([]op, error) {
		ops, err := w.setup(seed, sz, tr)
		if err == nil {
			ops[0].run = func(*tracer) (opResult, error) { return opResult{}, errors.New("forced failure") }
		}
		return ops, err
	}}
	res, p := tinyRun(t, broken, defaultSeed, false, nil)
	if res.failed != res.rounds || p.Failed != res.rounds || p.Correct {
		t.Errorf("erroring op: failed=%d over %d rounds, correct=%v", p.Failed, res.rounds, p.Correct)
	}

	// A digest that differs from the golden table fails its op.
	good, _ := tinyRun(t, w, defaultSeed, false, nil)
	golden := append([]string(nil), good.opDigests...)
	golden[1] = "0000000000000000"
	res, p = tinyRun(t, w, defaultSeed, false, golden)
	if res.failed != res.rounds || res.goldenState != "mismatch" || p.Correct {
		t.Errorf("golden mismatch: failed=%d over %d rounds, golden=%s", res.failed, res.rounds, res.goldenState)
	}
}

// TestGoldenDigests runs one round of each workload at full size and the
// golden seed and compares every op's digest with golden.json.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workloads")
	}
	g, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		want := g.Workloads[w.name]
		ops, err := w.setup(g.Seed, fullSize, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(ops) != len(want) {
			t.Fatalf("%s: %d ops, golden.json has %d digests", w.name, len(ops), len(want))
		}
		for i, o := range ops {
			out, err := o.run(nil)
			if err != nil {
				t.Fatalf("%s op %d: %v", w.name, i, err)
			}
			if got := hex16(out.digest); got != want[i] {
				t.Errorf("%s op %d (%s): digest %s, golden %s", w.name, i, o.scheme, got, want[i])
			}
		}
	}
}
