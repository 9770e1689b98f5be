// Task model: a sweep is a list of studies, each expanded into one
// task per service. Workers execute tasks through the single-process
// study code restricted to that one service; the dispatcher reassembles
// the per-service rows in canonical order, which is byte-identical to
// running the whole study in one process.
package dist

import (
	"context"
	"errors"
	"fmt"

	"simr/internal/core"
	"simr/internal/obs"
	"simr/internal/sample"
	"simr/internal/uservices"
)

// StudyKind selects which paper study a StudySpec runs.
type StudyKind uint8

const (
	// StudyChip is the chip-level CPU/SMT/RPU(/GPU) comparison behind
	// Figures 10/14/19/20/21 and the summary table.
	StudyChip StudyKind = 1
	// StudySensitivity is the §V-A1 ablation grid.
	StudySensitivity StudyKind = 2
	// StudyEfficiency is the SIMT-efficiency-by-policy study (Fig 15).
	StudyEfficiency StudyKind = 3
	// StudyMPKI is the L1 MPKI vs batch size study.
	StudyMPKI StudyKind = 4
	// StudyTiming is the RPU timing-knob sweep.
	StudyTiming StudyKind = 5
	// StudyMultiBatch is the §III-A multi-batch interleaving study.
	StudyMultiBatch StudyKind = 6
)

// String names the kind for logs and errors.
func (k StudyKind) String() string {
	switch k {
	case StudyChip:
		return "chip"
	case StudySensitivity:
		return "sensitivity"
	case StudyEfficiency:
		return "efficiency"
	case StudyMPKI:
		return "mpki"
	case StudyTiming:
		return "timing"
	case StudyMultiBatch:
		return "multibatch"
	}
	return fmt.Sprintf("study(%d)", uint8(k))
}

// ParseStudyKind reads a study name as written by StudyKind.String.
func ParseStudyKind(s string) (StudyKind, error) {
	for _, k := range []StudyKind{StudyChip, StudySensitivity, StudyEfficiency, StudyMPKI, StudyTiming, StudyMultiBatch} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("dist: unknown study %q (want chip|sensitivity|efficiency|mpki|timing|multibatch)", s)
}

// StudySpec defines one study of a sweep.
type StudySpec struct {
	Kind StudyKind
	// Services restricts the study to a service subset in the given
	// order; empty runs the whole suite in canonical order.
	Services []string
	Requests int
	Seed     int64
	// WithGPU adds the GPU column (StudyChip only).
	WithGPU bool
}

// SweepSpec is the full sweep a dispatcher executes: one or more
// studies, expanded to one task per (study, service).
type SweepSpec struct {
	Studies []StudySpec
}

// SweepConfig is what a worker needs to rebuild the driver's core.Env
// (every field of it but the context and the worker count) plus the
// dispatch knobs, so a worker reproduces the exact configuration the
// single-process run would use.
type SweepConfig struct {
	// Lookahead is the prep-pipeline depth (core.PrepAuto = automatic).
	Lookahead int
	// Sample is the sampled-simulation regime.
	Sample sample.Config
	// Metrics makes workers capture a per-task obs registry snapshot;
	// the dispatcher merges them (in task order) into SweepResult.Obs.
	Metrics bool
	// TaskWorkers is the RunCells worker count inside one task. The
	// default 1 runs each task's cells sequentially, which keeps the
	// per-task registry snapshot deterministic; parallelism comes from
	// running many workers.
	TaskWorkers int
}

// env returns the worker-side environment of a sweep run under ctx.
func (c SweepConfig) env(ctx context.Context) core.Env {
	return core.Env{Ctx: ctx, Workers: max(c.TaskWorkers, 1), Lookahead: c.Lookahead, Sample: c.Sample}
}

// Task is one unit of distribution: study Study of the sweep,
// restricted to one service. IDs are dense and ordered; reassembly by
// ID restores the single-process row order.
type Task struct {
	ID      int
	Study   int
	Service string
}

// TaskResult is one task's serialized outcome. Exactly one study field
// is set, matching the task's study kind; Err reports a cell failure.
type TaskResult struct {
	ID  int
	Err string

	Chip   *core.ChipRow
	Sens   []core.SensPair
	Eff    *core.EffRow
	MPKI   *core.MPKIRow
	Timing *core.TimingRow
	Multi  *core.MultiBatchRow

	// Obs is the task's deterministic-filtered registry snapshot when
	// SweepConfig.Metrics is set.
	Obs *obs.Snapshot
}

// resolveServices returns the study's service list (the whole suite in
// canonical order when unset).
func (st *StudySpec) resolveServices(suite *uservices.Suite) []string {
	if len(st.Services) > 0 {
		return st.Services
	}
	return suite.Names()
}

// Tasks expands the spec into its ordered task list, validating every
// service name against the suite.
func (spec *SweepSpec) Tasks(suite *uservices.Suite) ([]Task, error) {
	if len(spec.Studies) == 0 {
		return nil, errors.New("dist: sweep has no studies")
	}
	var ts []Task
	for si := range spec.Studies {
		st := &spec.Studies[si]
		names := st.resolveServices(suite)
		if _, err := suite.Lookup(names...); err != nil {
			return nil, fmt.Errorf("dist: study %d (%s): %w", si, st.Kind, err)
		}
		for _, name := range names {
			ts = append(ts, Task{ID: len(ts), Study: si, Service: name})
		}
	}
	return ts, nil
}

// executor runs tasks on the worker side.
type executor struct {
	suite   *uservices.Suite
	spec    SweepSpec
	env     core.Env
	metrics bool
}

// newExecutor prepares a worker to run the sweep's tasks under ctx.
func newExecutor(ctx context.Context, spec SweepSpec, cfg SweepConfig) (*executor, error) {
	if err := cfg.Sample.Validate(); err != nil {
		return nil, err
	}
	e := &executor{suite: uservices.NewSuite(), spec: spec, env: cfg.env(ctx), metrics: cfg.Metrics}
	// Validate eagerly so a bad spec surfaces at registration, not
	// mid-sweep.
	if _, err := spec.Tasks(e.suite); err != nil {
		return nil, err
	}
	return e, nil
}

// run executes one task. Simulation failures are reported in
// TaskResult.Err (the dispatcher fails the sweep); only local faults
// (bad task IDs) return an error.
func (e *executor) run(t Task) (TaskResult, error) {
	if t.Study < 0 || t.Study >= len(e.spec.Studies) {
		return TaskResult{}, fmt.Errorf("dist: task %d references study %d of %d", t.ID, t.Study, len(e.spec.Studies))
	}
	st := &e.spec.Studies[t.Study]
	res := TaskResult{ID: t.ID}
	svcs, err := e.suite.Lookup(t.Service)
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}

	// Per-task metrics: swap in a fresh registry for the duration of
	// the task. Probes resolve instruments per study call, so the whole
	// single-process instrumentation lands in the task's registry. With
	// TaskWorkers=1 the counters are deterministic; the worker filters
	// wall-clock instruments before shipping.
	var reg *obs.Registry
	if e.metrics {
		reg = obs.NewRegistry()
		obs.Enable(reg, nil)
		defer obs.Disable()
	}

	switch st.Kind {
	case StudyChip:
		var rows []core.ChipRow
		if rows, err = core.ChipStudy(svcs, st.Requests, st.Seed, st.WithGPU, e.env); err == nil {
			res.Chip = &rows[0]
		}
	case StudySensitivity:
		res.Sens, err = core.SensitivityStudy(svcs, st.Requests, st.Seed, e.env)
	case StudyEfficiency:
		var rows []core.EffRow
		if rows, err = core.EfficiencyStudy(svcs, st.Requests, st.Seed, e.env); err == nil {
			res.Eff = &rows[0]
		}
	case StudyMPKI:
		var rows []core.MPKIRow
		if rows, err = core.MPKIStudy(svcs, st.Requests, st.Seed, e.env); err == nil {
			res.MPKI = &rows[0]
		}
	case StudyTiming:
		var rows []core.TimingRow
		if rows, err = core.TimingSweep(svcs, st.Requests, st.Seed, e.env); err == nil {
			res.Timing = &rows[0]
		}
	case StudyMultiBatch:
		var rows []core.MultiBatchRow
		if rows, err = core.MultiBatchSweep(svcs, st.Seed, e.env); err == nil {
			res.Multi = &rows[0]
		}
	default:
		return TaskResult{}, fmt.Errorf("dist: task %d has unknown study kind %d", t.ID, st.Kind)
	}
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	if reg != nil {
		snap := reg.Snapshot().Deterministic()
		res.Obs = &snap
	}
	return res, nil
}

// StudyOut is one study's reassembled output.
type StudyOut struct {
	Spec StudySpec
	// Services is the resolved service list (column order of Sens,
	// row order of the row slices).
	Services []string

	Chip   []core.ChipRow
	Sens   []core.SensPair // flat grid [section*len(Services)+s]
	Eff    []core.EffRow
	MPKI   []core.MPKIRow
	Timing []core.TimingRow
	Multi  []core.MultiBatchRow
}

// SweepResult is a completed sweep: per-study outputs plus the merged
// per-task registry snapshot (zero when metrics were off).
type SweepResult struct {
	Studies []StudyOut
	Obs     obs.Snapshot
}

// assemble reassembles completed task results (indexed by task ID)
// into per-study outputs, restoring single-process row order.
func assemble(spec SweepSpec, suite *uservices.Suite, tasks []Task, results []*TaskResult) (*SweepResult, error) {
	out := &SweepResult{Studies: make([]StudyOut, len(spec.Studies))}
	for si := range spec.Studies {
		st := &spec.Studies[si]
		names := st.resolveServices(suite)
		so := &out.Studies[si]
		so.Spec = *st
		so.Services = names
		if st.Kind == StudySensitivity {
			so.Sens = make([]core.SensPair, core.SensSections()*len(names))
		}
	}
	var snaps []obs.Snapshot
	for _, t := range tasks {
		r := results[t.ID]
		if r == nil {
			return nil, fmt.Errorf("dist: task %d (%s) missing from results", t.ID, t.Service)
		}
		so := &out.Studies[t.Study]
		st := &spec.Studies[t.Study]
		switch {
		case st.Kind == StudySensitivity:
			if len(r.Sens) != core.SensSections() {
				return nil, fmt.Errorf("dist: task %d returned %d sensitivity sections, want %d", t.ID, len(r.Sens), core.SensSections())
			}
			ns := len(so.Services)
			s := indexOf(so.Services, t.Service)
			for sec, p := range r.Sens {
				so.Sens[sec*ns+s] = p
			}
		case r.Chip != nil:
			so.Chip = append(so.Chip, *r.Chip)
		case r.Eff != nil:
			so.Eff = append(so.Eff, *r.Eff)
		case r.MPKI != nil:
			so.MPKI = append(so.MPKI, *r.MPKI)
		case r.Timing != nil:
			so.Timing = append(so.Timing, *r.Timing)
		case r.Multi != nil:
			so.Multi = append(so.Multi, *r.Multi)
		default:
			return nil, fmt.Errorf("dist: task %d (%s %s) returned no payload", t.ID, st.Kind, t.Service)
		}
		if r.Obs != nil {
			snaps = append(snaps, *r.Obs)
		}
	}
	// Tasks of one study are contiguous and in service order, so the
	// appends above already restored row order.
	out.Obs = obs.MergeSnapshots(snaps...)
	return out, nil
}

func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}
