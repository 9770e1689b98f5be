// End-to-end tests for the dispatcher/worker tier. Workers are real
// forked processes: TestMain re-execs the test binary as a worker when
// SIMR_DIST_WORKER is set, so every test exercises the actual wire
// protocol, gob serialization and process supervision — including
// under the race detector.
package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"simr/internal/core"
	"simr/internal/obs"
	"simr/internal/uservices"
)

func TestMain(m *testing.M) {
	if addr := os.Getenv("SIMR_DIST_WORKER"); addr != "" {
		opts := WorkerOptions{Addr: addr, Name: "test-worker"}
		if n, _ := strconv.Atoi(os.Getenv("SIMR_DIST_CORRUPT")); n > 0 {
			opts.CorruptResult = n
		}
		if err := RunWorker(context.Background(), opts); err != nil {
			fmt.Fprintln(os.Stderr, "dist test worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const testRequests = 8

var (
	chipSvcs = []string{"mcrouter", "memc", "urlshort", "uniqueid", "user"}
	sensSvcs = []string{"memc", "user", "post", "usertag", "uniqueid"}
)

// testEnv is the single-process environment the reference runs in;
// testConfig is its wire form, as the drivers build it.
var testEnv = core.Env{Workers: 1, Lookahead: core.PrepAuto}

func testConfig(metrics bool) SweepConfig {
	return SweepConfig{Lookahead: testEnv.Lookahead, Sample: testEnv.Sample, Metrics: metrics, TaskWorkers: 1}
}

// testSpec is the sweep every test distributes: a chip-study subset
// plus a sensitivity-grid subset, 10 tasks total.
func testSpec() SweepSpec {
	return SweepSpec{Studies: []StudySpec{
		{Kind: StudyChip, Services: chipSvcs, Requests: testRequests, Seed: 7},
		{Kind: StudySensitivity, Services: sensSvcs, Requests: testRequests, Seed: 7},
	}}
}

// singleProcessRef renders the sweep through the ordinary
// single-process study code — the byte-level oracle every distributed
// run must reproduce.
func singleProcessRef(t *testing.T) []byte {
	t.Helper()
	suite := uservices.NewSuite()
	get := func(names []string) []*uservices.Service {
		svcs, err := suite.Lookup(names...)
		if err != nil {
			t.Fatal(err)
		}
		return svcs
	}
	chip, err := core.ChipStudy(get(chipSvcs), testRequests, 7, false, testEnv)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := core.SensitivityStudy(get(sensSvcs), testRequests, 7, testEnv)
	if err != nil {
		t.Fatal(err)
	}
	return renderSweep(t, chip, sensSvcs, pairs)
}

func renderSweep(t *testing.T, chip []core.ChipRow, services []string, pairs []core.SensPair) []byte {
	t.Helper()
	var buf bytes.Buffer
	core.WriteFig19(&buf, chip)
	if err := core.WriteSensitivity(&buf, services, pairs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func renderResult(t *testing.T, res *SweepResult) []byte {
	t.Helper()
	return renderSweep(t, res.Studies[0].Chip, res.Studies[1].Services, res.Studies[1].Sens)
}

// workerEnv builds the fork environment pointing a worker at addr.
func workerEnv(addr string, extra ...string) []string {
	return append([]string{"SIMR_DIST_WORKER=" + addr}, extra...)
}

// runSweep drives one dispatcher with n forked workers to completion.
func runSweep(t *testing.T, cfg SweepConfig, opts DispatcherOptions, n int) *SweepResult {
	t.Helper()
	d, err := NewDispatcher(testSpec(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	cmds, err := StartWorkers(n, nil, workerEnv(d.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer StopWorkers(cmds)
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDistributedSweepDeterminism is the cross-process determinism
// gate: the sweep run through the dispatcher at 1, 2 and 4 forked
// worker processes must render byte-identically to the single-process
// study code, and the merged per-task registry snapshots must be
// byte-identical across worker counts.
func TestDistributedSweepDeterminism(t *testing.T) {
	ref := singleProcessRef(t)
	cfg := testConfig(true)
	var snapRef []byte
	for _, n := range []int{1, 2, 4} {
		res := runSweep(t, cfg, DispatcherOptions{}, n)
		if got := renderResult(t, res); !bytes.Equal(got, ref) {
			t.Fatalf("%d workers: output differs from single-process reference\n--- got ---\n%s\n--- want ---\n%s", n, got, ref)
		}
		var buf bytes.Buffer
		if err := res.Obs.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if snapRef == nil {
			snapRef = buf.Bytes()
			if !strings.Contains(buf.String(), "core.runcells") {
				t.Fatalf("merged snapshot missing simulation scopes:\n%s", buf.String())
			}
		} else if !bytes.Equal(buf.Bytes(), snapRef) {
			t.Fatalf("%d workers: merged registry snapshot differs\n--- got ---\n%s\n--- want ---\n%s", n, buf.Bytes(), snapRef)
		}
	}
}

// waitProgress blocks until the dispatcher has completed at least min
// tasks (but not the whole sweep yet, if the caller is quick).
func waitProgress(t *testing.T, d *Dispatcher, min int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		d.mu.Lock()
		done := d.done
		d.mu.Unlock()
		if done >= min {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("dispatcher stuck at %d/%d tasks", done, min)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerKillRequeueDeterminism kills a worker process mid-sweep:
// its in-flight task must be requeued onto a rescue worker and the
// final output must stay byte-identical to the single-process run.
func TestWorkerKillRequeueDeterminism(t *testing.T) {
	ref := singleProcessRef(t)
	reg := obs.NewRegistry()
	obs.Enable(reg, nil)
	defer obs.Disable()

	d, err := NewDispatcher(testSpec(), testConfig(false), DispatcherOptions{HeartbeatEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := StartWorkers(1, nil, workerEnv(d.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer StopWorkers(victim)

	type outcome struct {
		res *SweepResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := d.Run(context.Background())
		ch <- outcome{res, err}
	}()

	waitProgress(t, d, 2)
	victim[0].Process.Kill()
	rescue, err := StartWorkers(1, nil, workerEnv(d.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer StopWorkers(rescue)

	out := <-ch
	if out.err != nil {
		t.Fatal(out.err)
	}
	if got := renderResult(t, out.res); !bytes.Equal(got, ref) {
		t.Fatalf("output differs from single-process reference after worker kill\n--- got ---\n%s\n--- want ---\n%s", got, ref)
	}
	snap := reg.Snapshot()
	for _, sc := range snap.Scopes {
		if sc.Name == "dist.dispatcher" {
			if sc.Counters["workers_lost"] < 1 {
				t.Fatalf("expected at least one lost worker, counters: %v", sc.Counters)
			}
			if sc.Counters["tasks_requeued"] < 1 {
				t.Fatalf("expected at least one requeued task, counters: %v", sc.Counters)
			}
		}
	}
}

// TestCorruptResultRequeueDeterminism drops a worker's connection
// midway through writing a result frame (the CorruptResult fault
// injection): the dispatcher must discard the torn frame, requeue the
// task, and still produce byte-identical output.
func TestCorruptResultRequeueDeterminism(t *testing.T) {
	ref := singleProcessRef(t)
	reg := obs.NewRegistry()
	obs.Enable(reg, nil)
	defer obs.Disable()

	d, err := NewDispatcher(testSpec(), testConfig(false), DispatcherOptions{HeartbeatEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// One worker severs its connection halfway through its second
	// result; the clean worker finishes the sweep.
	corrupt, err := StartWorkers(1, nil, workerEnv(d.Addr(), "SIMR_DIST_CORRUPT=2"))
	if err != nil {
		t.Fatal(err)
	}
	defer StopWorkers(corrupt)
	clean, err := StartWorkers(1, nil, workerEnv(d.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer StopWorkers(clean)

	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := renderResult(t, res); !bytes.Equal(got, ref) {
		t.Fatalf("output differs from single-process reference after mid-result drop\n--- got ---\n%s\n--- want ---\n%s", got, ref)
	}
	snap := reg.Snapshot()
	for _, sc := range snap.Scopes {
		if sc.Name == "dist.dispatcher" && sc.Counters["tasks_requeued"] < 1 {
			t.Fatalf("expected the severed result's task to requeue, counters: %v", sc.Counters)
		}
	}
}

// TestDispatcherCheckpointResumeDeterminism kills a journaling
// dispatcher mid-sweep (context cancellation — the same path SIGINT
// takes), then resumes from the checkpoint with a fresh dispatcher:
// the resumed run must skip the journaled tasks and the final output
// must stay byte-identical to the single-process run.
func TestDispatcherCheckpointResumeDeterminism(t *testing.T) {
	ref := singleProcessRef(t)
	jpath := filepath.Join(t.TempDir(), "sweep.journal")
	cfg := testConfig(false)

	// First attempt: cancel once at least two tasks are journaled.
	d1, err := NewDispatcher(testSpec(), cfg, DispatcherOptions{Journal: jpath, HeartbeatEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	w1, err := StartWorkers(1, nil, workerEnv(d1.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := d1.Run(ctx)
		errCh <- err
	}()
	waitProgress(t, d1, 2)
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("cancelled dispatcher reported success")
	}
	StopWorkers(w1)

	// Resume: the fresh dispatcher must load the journaled tasks...
	d2, err := NewDispatcher(testSpec(), cfg, DispatcherOptions{Journal: jpath, Resume: true, HeartbeatEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	d2.mu.Lock()
	resumed := d2.done
	d2.mu.Unlock()
	if resumed < 2 {
		t.Fatalf("resumed dispatcher loaded %d tasks, journaled at least 2", resumed)
	}
	// ...and the completed sweep must match the single-process oracle.
	w2, err := StartWorkers(1, nil, workerEnv(d2.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer StopWorkers(w2)
	res, err := d2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := renderResult(t, res); !bytes.Equal(got, ref) {
		t.Fatalf("output differs from single-process reference after checkpoint resume\n--- got ---\n%s\n--- want ---\n%s", got, ref)
	}
}

// TestJournalTornTailResume crash-truncates the last journal record (a
// dispatcher killed mid-append) and resumes: the torn record must be
// discarded, its task re-run, and the output stay byte-identical.
func TestJournalTornTailResume(t *testing.T) {
	ref := singleProcessRef(t)
	jpath := filepath.Join(t.TempDir(), "sweep.journal")
	cfg := testConfig(false)

	// Produce a complete journal.
	res := runSweep(t, cfg, DispatcherOptions{Journal: jpath}, 2)
	if got := renderResult(t, res); !bytes.Equal(got, ref) {
		t.Fatalf("journaling run differs from reference")
	}

	// Tear the final record: keep its length prefix and half its body.
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	offsets := recordOffsets(t, raw)
	if len(offsets) < 3 { // header + at least two records
		t.Fatalf("journal has only %d records", len(offsets))
	}
	last := offsets[len(offsets)-1]
	torn := raw[:last+(len(raw)-last)/2]
	if err := os.WriteFile(jpath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := NewDispatcher(testSpec(), cfg, DispatcherOptions{Journal: jpath, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	resumed := d.done
	d.mu.Unlock()
	if want := len(offsets) - 2; resumed != want {
		t.Fatalf("resumed %d tasks from torn journal, want %d (torn tail discarded)", resumed, want)
	}
	w, err := StartWorkers(1, nil, workerEnv(d.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer StopWorkers(w)
	res, err = d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := renderResult(t, res); !bytes.Equal(got, ref) {
		t.Fatalf("output differs from single-process reference after torn-tail resume")
	}
}

// recordOffsets walks the journal's length-prefixed records and
// returns each record's byte offset (header first).
func recordOffsets(t *testing.T, raw []byte) []int {
	t.Helper()
	var offs []int
	off := 0
	for off < len(raw) {
		if off+4 > len(raw) {
			t.Fatalf("journal truncated at offset %d", off)
		}
		n := int(binary.BigEndian.Uint32(raw[off:]))
		offs = append(offs, off)
		off += 4 + n
	}
	if off != len(raw) {
		t.Fatalf("journal records overrun the file: %d vs %d", off, len(raw))
	}
	return offs
}

// TestJournalRejectsDifferentSweep ensures a checkpoint cannot resume
// a sweep it was not written for.
func TestJournalRejectsDifferentSweep(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "sweep.journal")
	cfg := testConfig(false)
	if res := runSweep(t, cfg, DispatcherOptions{Journal: jpath}, 1); res == nil {
		t.Fatal("no result")
	}
	other := testSpec()
	other.Studies[0].Seed = 8
	if _, err := NewDispatcher(other, cfg, DispatcherOptions{Journal: jpath, Resume: true}); err == nil {
		t.Fatal("journal resumed a sweep with a different seed")
	} else if !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("unexpected resume error: %v", err)
	}
}

// TestSchemaMismatchRejected speaks the handshake directly with a
// wrong schema hash: the dispatcher must refuse the pairing with a
// Reject frame and never hand out work.
func TestSchemaMismatchRejected(t *testing.T) {
	d, err := NewDispatcher(testSpec(), testConfig(false), DispatcherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := d.Run(ctx)
		errCh <- err
	}()
	defer func() {
		cancel()
		<-errCh
	}()

	conn, err := net.DialTimeout("tcp", d.Addr(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, kindHello, Hello{Proto: ProtoVersion, Schema: "0000000000000000", Name: "impostor"}); err != nil {
		t.Fatal(err)
	}
	k, p, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if k != kindReject {
		t.Fatalf("got frame kind %d, want reject", k)
	}
	var rej Reject
	if err := decodePayload(p, &rej); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rej.Reason, "schema mismatch") {
		t.Fatalf("reject reason %q", rej.Reason)
	}
	// The dispatcher must have hung up rather than serving tasks.
	if _, _, err := readFrame(conn); err == nil {
		t.Fatal("dispatcher kept talking to a mismatched worker")
	} else if err != io.EOF && !strings.Contains(err.Error(), "closed") && !strings.Contains(err.Error(), "reset") {
		t.Logf("connection ended with: %v", err)
	}
}

// TestSchemaHashShape pins the schema hash format the handshake and
// the journal header rely on: 16 hex characters, stable within a
// binary.
func TestSchemaHashShape(t *testing.T) {
	h := SchemaHash()
	if len(h) != 16 {
		t.Fatalf("schema hash %q: want 16 hex chars", h)
	}
	for _, c := range h {
		if !strings.ContainsRune("0123456789abcdef", c) {
			t.Fatalf("schema hash %q: non-hex char %q", h, c)
		}
	}
	if h != SchemaHash() {
		t.Fatal("schema hash not stable across calls")
	}
}

// TestExecutorRejectsBadTaskFrames: a welcome carrying an invalid
// sampling config fails registration, and a task frame naming a service
// the worker does not know, or a spec with a non-positive request
// count, fails the task with an error instead of panicking the worker.
func TestExecutorRejectsBadTaskFrames(t *testing.T) {
	spec := SweepSpec{Studies: []StudySpec{
		{Kind: StudyChip, Services: []string{"memc"}, Requests: testRequests, Seed: 7},
		{Kind: StudyTiming, Services: []string{"memc"}, Requests: 0, Seed: 7},
	}}
	bad := testConfig(false)
	bad.Sample.Period = -1
	if _, err := newExecutor(context.Background(), spec, bad); err == nil {
		t.Fatal("executor accepted a negative sampling period")
	}
	e, err := newExecutor(context.Background(), spec, testConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		task Task
		want string
	}{
		{Task{ID: 0, Study: 0, Service: "nosuch"}, "unknown service"},
		{Task{ID: 1, Study: 1, Service: "memc"}, "requests"},
	} {
		res, err := e.run(c.task)
		if err != nil {
			t.Fatalf("task %+v: %v", c.task, err)
		}
		if !strings.Contains(res.Err, c.want) {
			t.Fatalf("task %+v: result error %q, want it to mention %q", c.task, res.Err, c.want)
		}
	}
}
