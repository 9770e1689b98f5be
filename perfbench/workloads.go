package main

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"

	"simr/internal/core"
	"simr/internal/uservices"
)

// workload is one study CLI invocation the benchmark times and checks.
type workload struct {
	name string
	// defaultSeed is the seed the study uses when given none; heldOut
	// is a second seed whose digest is recorded but which is not used
	// while tuning a change (see README.md).
	defaultSeed, heldOut int64
	bin                  string
	args                 func(seed int64) []string
	// check parses stdout and enforces the output invariants. It
	// returns the fidelity ratios when the output carries them.
	check func(out string) (*fidelity, error)
	// setup does the host work the CLI does before its first
	// simulated cell.
	setup func(seed int64) error
	// probe replays the workload's layers in-process for a traced run;
	// out is the traced CLI's stdout.
	probe func(t *tracer, seed int64, out string, ls *layerStats) error
}

// Every CLI run uses two workers: the benchmark host has two CPUs, and
// a fixed count keeps wall_s comparable across hosts with more.
const workers = 2

const (
	chipRequests = 2400 // the paper's requests per service
	tailScale    = 10
	tailPoints   = 4
	tailSeconds  = 2
	fig22Points  = 12
	fig22Max     = 70000
)

var workloads = []*workload{
	{
		name: "chip-paper", defaultSeed: 42, heldOut: 43, bin: "chipsim", setup: setupChip, probe: probeChip,
		args: func(seed int64) []string {
			return []string{"-requests", strconv.Itoa(chipRequests), "-gpu=false",
				"-parallel", strconv.Itoa(workers), "-seed", strconv.FormatInt(seed, 10)}
		},
		check: func(out string) (*fidelity, error) { f, err := parseChip(out); return &f, err },
	},
	{
		name: "chip-timing", defaultSeed: 42, heldOut: 43, bin: "chipsim", setup: setupChip, probe: probeChip,
		args: func(seed int64) []string {
			return []string{"-requests", strconv.Itoa(chipRequests), "-timing",
				"-parallel", strconv.Itoa(workers), "-seed", strconv.FormatInt(seed, 10)}
		},
		check: func(out string) (*fidelity, error) { return nil, checkTiming(out) },
	},
	{
		name: "tail-policy", defaultSeed: 7, heldOut: 8, bin: "syssim", setup: setupTail, probe: probeTail,
		args: func(seed int64) []string {
			return []string{"-tail", "-scale", strconv.Itoa(tailScale), "-points", strconv.Itoa(tailPoints),
				"-seconds", strconv.Itoa(tailSeconds), "-seed", strconv.FormatInt(seed, 10),
				"-parallel", strconv.Itoa(workers),
				"-timeout", "100", "-retries", "1", "-hedge", "50", "-qcap", "10000"}
		},
		check: func(out string) (*fidelity, error) { _, err := parseTail(out); return nil, err },
	},
	{
		name: "fig22-closure", defaultSeed: 1, heldOut: 2, bin: "syssim", setup: setupFig22, probe: probeFig22,
		args: func(seed int64) []string {
			return []string{"-parallel", strconv.Itoa(workers), "-seed", strconv.FormatInt(seed, 10)}
		},
		check: func(out string) (*fidelity, error) { _, err := parseFig22(out); return nil, err },
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// smokeRequests sizes the fidelity smoke run that workloads whose output
// has no fidelity ratios make, so that every workload reports the
// paper_err metrics.
const smokeRequests = 240

func smokeArgs(seed int64) []string {
	return []string{"-requests", strconv.Itoa(smokeRequests), "-gpu=false",
		"-parallel", strconv.Itoa(workers), "-seed", strconv.FormatInt(seed, 10)}
}

// Paper reference values, the only reference the fidelity metrics use:
// Fig 19 RPU requests/joule geomean, Fig 20 RPU latency average, Fig 14
// RPU L1 accesses average and Fig 21 RPU memory latency (1.33x lower).
var paperRef = fidelity{ReqJ: 5.7, Latency: 1.44, L1: 0.25, MemLat: 1 / 1.33}

// fidelity holds the four printed RPU-vs-CPU summary ratios.
type fidelity struct{ ReqJ, Latency, L1, MemLat float64 }

// errs returns |ln(measured/paper)| for each ratio, in metric order.
func (f fidelity) errs() [4]float64 {
	e := func(m, p float64) float64 { return math.Abs(math.Log(m / p)) }
	return [4]float64{e(f.ReqJ, paperRef.ReqJ), e(f.Latency, paperRef.Latency),
		e(f.L1, paperRef.L1), e(f.MemLat, paperRef.MemLat)}
}

var fidelityNames = [4]string{"paper_err_reqj", "paper_err_latency", "paper_err_l1", "paper_err_memlat"}

// figSpec is the shape of one chip figure: its summary row and how many
// value columns each service row carries.
type figSpec struct {
	summary string
	cols    int
}

var chipFigs = map[int]figSpec{
	10: {"average", 3},
	14: {"average", 1},
	19: {"geomean", 2},
	20: {"average", 2},
	21: {"average", 4},
}

// serviceNames lists the suite's services, the rows every chip figure
// must carry.
var serviceNames = uservices.NewSuite().Names()

// numField parses a table cell such as "4.10x", "73.0%" or "0.97".
func numField(s string) (float64, bool) {
	s = strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// rowValues splits a row into its name and leading numeric cells; a
// trailing note such as "(paper: 5.7x / 1.05x)" ends the values.
func rowValues(line string) (string, []float64) {
	f := strings.Fields(line)
	if len(f) == 0 {
		return "", nil
	}
	var vals []float64
	for _, c := range f[1:] {
		v, ok := numField(c)
		if !ok {
			break
		}
		vals = append(vals, v)
	}
	return f[0], vals
}

func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }

// parseChip checks the default chip study output (Figs 10, 14, 19, 20,
// 21) and returns the four summary ratios the fidelity metrics use.
func parseChip(out string) (fidelity, error) {
	tables := map[int]map[string][]float64{}
	var cur map[string][]float64
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Figure "):
			num, _, _ := strings.Cut(strings.TrimPrefix(line, "Figure "), ":")
			n, err := strconv.Atoi(num)
			if err != nil {
				return fidelity{}, fmt.Errorf("bad figure header %q", line)
			}
			if _, dup := tables[n]; dup {
				return fidelity{}, fmt.Errorf("figure %d printed twice", n)
			}
			cur = map[string][]float64{}
			tables[n] = cur
		case cur == nil, strings.HasPrefix(line, "service"):
		case strings.TrimSpace(line) == "", strings.HasPrefix(line, "("):
			cur = nil
		default:
			name, vals := rowValues(line)
			if _, dup := cur[name]; dup {
				return fidelity{}, fmt.Errorf("row %q printed twice", name)
			}
			cur[name] = vals
		}
	}
	for fig, spec := range chipFigs {
		t, ok := tables[fig]
		if !ok {
			return fidelity{}, fmt.Errorf("figure %d missing", fig)
		}
		if len(t) != len(serviceNames)+1 {
			return fidelity{}, fmt.Errorf("figure %d: %d rows, want %d services and %s",
				fig, len(t), len(serviceNames), spec.summary)
		}
		for _, name := range append(serviceNames[:len(serviceNames):len(serviceNames)], spec.summary) {
			vals, ok := t[name]
			if !ok {
				return fidelity{}, fmt.Errorf("figure %d: row %q missing", fig, name)
			}
			want := spec.cols
			if fig == 21 && name == spec.summary {
				want-- // no SIMT-efficiency average
			}
			if len(vals) != want {
				return fidelity{}, fmt.Errorf("figure %d: row %q has %d values, want %d", fig, name, len(vals), want)
			}
			for _, v := range vals {
				if !finitePositive(v) {
					return fidelity{}, fmt.Errorf("figure %d: row %q has non-positive value %v", fig, name, v)
				}
			}
		}
	}
	return fidelity{
		ReqJ:    tables[19]["geomean"][0],
		Latency: tables[20]["average"][0],
		L1:      tables[14]["average"][0],
		MemLat:  tables[21]["average"][0],
	}, nil
}

// checkTiming checks the -timing table: one row per timing variant, in
// order, each with finite positive latency and requests/joule ratios.
func checkTiming(out string) error {
	var rows []string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "RPU timing") || strings.HasPrefix(line, "(") || strings.HasPrefix(line, "variant") {
			continue
		}
		name, vals := rowValues(line)
		if len(vals) != 2 || !finitePositive(vals[0]) || !finitePositive(vals[1]) {
			return fmt.Errorf("timing row %q: want two finite positive ratios", line)
		}
		rows = append(rows, name)
	}
	vs := core.DefaultTimingVariants()
	if len(rows) != len(vs) {
		return fmt.Errorf("timing table has %d rows, want %d", len(rows), len(vs))
	}
	for i, v := range vs {
		if rows[i] != v.Name {
			return fmt.Errorf("timing row %d is %q, want %q", i, rows[i], v.Name)
		}
	}
	return nil
}

// modes are the three system configurations both syssim tables print.
var modes = []string{"cpu", "rpu-nosplit", "rpu-split"}

// parseModes reads the per-mode tables syssim prints ("cpu:" then a
// header then rows of cols numbers) into mode → rows.
func parseModes(out string, cols int) (map[string][][]float64, error) {
	tables := map[string][][]float64{}
	cur := ""
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		trim := strings.TrimSpace(line)
		switch {
		case strings.HasSuffix(line, ":") && !strings.HasPrefix(line, " "):
			cur = strings.TrimSuffix(line, ":")
			if _, dup := tables[cur]; dup {
				return nil, fmt.Errorf("mode %q printed twice", cur)
			}
			tables[cur] = nil
		case cur == "" || strings.HasPrefix(trim, "qps"):
		case trim == "":
			cur = ""
		default:
			f := strings.Fields(line)
			if len(f) != cols {
				return nil, fmt.Errorf("mode %s: row %q has %d columns, want %d", cur, line, len(f), cols)
			}
			row := make([]float64, cols)
			for i, c := range f {
				v, err := strconv.ParseFloat(c, 64)
				if err != nil || v < 0 || math.IsInf(v, 0) {
					return nil, fmt.Errorf("mode %s: bad cell %q in %q", cur, c, line)
				}
				row[i] = v
			}
			tables[cur] = append(tables[cur], row)
		}
	}
	if len(tables) != len(modes) {
		return nil, fmt.Errorf("%d mode tables, want %d", len(tables), len(modes))
	}
	return tables, nil
}

// checkGrid checks that a mode has one row per load point and that the
// offered loads are the sweep's evenly spaced grid.
func checkGrid(mode string, rows [][]float64, points int, max float64) error {
	if len(rows) != points {
		return fmt.Errorf("mode %s: %d load rows, want %d", mode, len(rows), points)
	}
	for i, r := range rows {
		want := math.Round(max * float64(i+1) / float64(points))
		if r[0] != want {
			return fmt.Errorf("mode %s: row %d offers %v QPS, want %v", mode, i, r[0], want)
		}
	}
	return nil
}

// Tail table columns: qps done/s p50 p99 p999 timeo retry hedge reject hwm Mev.
const (
	tailDone = 1
	tailP50  = 2
	tailP99  = 3
	tailP999 = 4
	tailMev  = 10
	tailCols = 11
)

// parseTail checks the tail-at-scale table: every mode has every load
// row, with p50 <= p99 <= p999. Rows that complete nothing (all
// percentiles 0) are valid output.
func parseTail(out string) (map[string][][]float64, error) {
	tables, err := parseModes(out, tailCols)
	if err != nil {
		return nil, err
	}
	for _, m := range modes {
		if err := checkGrid(m, tables[m], tailPoints, 70000*tailScale); err != nil {
			return nil, err
		}
		for _, r := range tables[m] {
			if r[tailP50] > r[tailP99] || r[tailP99] > r[tailP999] {
				return nil, fmt.Errorf("mode %s at %v QPS: percentiles out of order (%v, %v, %v)",
					m, r[0], r[tailP50], r[tailP99], r[tailP999])
			}
		}
	}
	return tables, nil
}

// Figure 22 table columns: qps done/s p99 avg util fill.
const (
	f22Done = 1
	f22P99  = 2
	f22Util = 4
	f22Cols = 6
)

// parseFig22 checks the closure-engine Figure 22 table: every mode has
// every load row and utilisation stays within [0, 1].
func parseFig22(out string) (map[string][][]float64, error) {
	tables, err := parseModes(out, f22Cols)
	if err != nil {
		return nil, err
	}
	for _, m := range modes {
		if err := checkGrid(m, tables[m], fig22Points, fig22Max); err != nil {
			return nil, err
		}
		for _, r := range tables[m] {
			if r[f22Util] > 1 {
				return nil, fmt.Errorf("mode %s at %v QPS: utilisation %v above 1", m, r[0], r[f22Util])
			}
		}
	}
	return tables, nil
}
