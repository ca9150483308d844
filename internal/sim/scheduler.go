package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"odbgc/internal/workload"
)

// The paper's evaluation is embarrassingly parallel: every (policy,
// configuration, seed) cell of its tables and figures is an independent
// deterministic simulation. The Scheduler flattens an arbitrary set of
// such cells — a whole experiment suite — into one job queue drained by a
// fixed pool of worker goroutines, and shares each workload seed's
// recorded trace between all the simulations that replay it.

// Job is one simulation of a flattened suite: a simulator configuration
// plus the workload configuration whose trace drives it.
type Job struct {
	// Label tags progress lines and error messages, e.g.
	// "tables/Random/seed 3".
	Label string
	// Sim and WL configure the cell.
	Sim Config
	WL  workload.Config
	// Out, when non-nil, receives the result. It must stay valid (and
	// untouched by the caller) until Wait returns.
	Out *Result
}

// Scheduler runs Jobs on a bounded worker pool with deterministic result
// assembly: each job writes into its own Out slot, so results land in
// submission-defined positions regardless of completion order, and Wait
// reports the error of the earliest-submitted failed job.
//
// Submit and Wait are intended for one orchestrating goroutine; the
// workers never touch caller state outside the Out slots.
type Scheduler struct {
	cache   *workload.TraceCache
	notify  func(done, total int64, label string)
	recordf func(Job) RunRecorder

	jobs    chan queuedJob
	workers sync.WaitGroup
	pending sync.WaitGroup

	submitted atomic.Int64
	completed atomic.Int64

	mu     sync.Mutex
	err    error
	errSeq int64
}

type queuedJob struct {
	Job
	seq int64
	rec RunRecorder
}

// RunRecorder receives one job's run recording: Hooks supplies the
// simulator-side record hooks wired into the job's Config, and Finish is
// invoked with the run's Result once the simulation completes
// successfully (a failed job's recorder is never finished).
// internal/record's Run is the canonical implementation.
type RunRecorder interface {
	Hooks() RecordConfig
	Finish(Result)
}

// NewScheduler starts a pool of worker goroutines; workers <= 0 means
// GOMAXPROCS. cache may be nil, in which case every job generates its own
// workload trace (no sharing); with a cache, each distinct workload
// configuration is generated once and replayed into every job that uses
// it. Close must be called when done.
func NewScheduler(workers int, cache *workload.TraceCache) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{cache: cache, jobs: make(chan queuedJob, 4*workers)}
	for i := 0; i < workers; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for j := range s.jobs {
				s.run(j)
			}
		}()
	}
	return s
}

// SetNotify registers a completion callback invoked with the number of
// completed and submitted jobs and the finished job's label. Set it
// before the first Submit. The callback is invoked from worker
// goroutines and must be goroutine-safe (see experiments.Progress.Sync).
func (s *Scheduler) SetNotify(fn func(done, total int64, label string)) { s.notify = fn }

// SetRecordFactory registers a per-job recorder factory invoked on the
// submitting goroutine, in submission order — so recorder creation order
// (and therefore run numbering in a batch recorder) is deterministic no
// matter how the pool interleaves completions. A nil return from the
// factory leaves that job unrecorded. Set it before the first Submit.
func (s *Scheduler) SetRecordFactory(fn func(Job) RunRecorder) { s.recordf = fn }

// Submitted and Completed report queue counters.
func (s *Scheduler) Submitted() int64 { return s.submitted.Load() }
func (s *Scheduler) Completed() int64 { return s.completed.Load() }

// Submit enqueues one job for the pool. Every job builds its own
// simulator, and with it its own policy instance (Config.PolicyFactory
// included), so jobs share no policy state. Submit may block when the
// queue is full.
func (s *Scheduler) Submit(job Job) {
	seq := s.submitted.Add(1)
	s.pending.Add(1)
	var rec RunRecorder
	if s.recordf != nil {
		if rec = s.recordf(job); rec != nil {
			job.Sim.Record = rec.Hooks()
		}
	}
	s.jobs <- queuedJob{job, seq, rec}
}

// SeedJob returns run i of the paper's average over differently seeded
// runs of one configuration: workload seed base+i, simulator seed
// base+1000+i, labelled "label/seed i", its result written to out.
func SeedJob(label string, simCfg Config, wlCfg workload.Config, i int, out *Result) Job {
	simCfg.Seed += 1000 + int64(i)
	wlCfg.Seed += int64(i)
	return Job{Label: fmt.Sprintf("%s/seed %d", label, i), Sim: simCfg, WL: wlCfg, Out: out}
}

// SubmitSeeds enqueues the n derived-seed runs of one configuration (see
// SeedJob). out must have length n; out[i] receives seed i's result.
func (s *Scheduler) SubmitSeeds(label string, simCfg Config, wlCfg workload.Config, n int, out []Result) {
	for i := 0; i < n; i++ {
		s.Submit(SeedJob(label, simCfg, wlCfg, i, &out[i]))
	}
}

func (s *Scheduler) run(j queuedJob) {
	defer s.pending.Done()
	res, err := s.execute(j.Job)
	if err != nil {
		s.mu.Lock()
		if s.err == nil || j.seq < s.errSeq {
			s.err, s.errSeq = fmt.Errorf("sim: job %s: %w", j.Label, err), j.seq
		}
		s.mu.Unlock()
	} else {
		if j.rec != nil {
			j.rec.Finish(res)
		}
		if j.Out != nil {
			*j.Out = res
		}
	}
	done := s.completed.Add(1)
	if s.notify != nil {
		s.notify(done, s.submitted.Load(), j.Label)
	}
}

func (s *Scheduler) execute(job Job) (Result, error) {
	if s.cache == nil {
		res, _, err := RunWorkload(job.Sim, job.WL)
		return res, err
	}
	rt, err := s.cache.Get(job.WL)
	if err != nil {
		return Result{}, err
	}
	return RunRecorded(job.Sim, rt)
}

// Wait blocks until every job submitted so far has finished, then
// returns the error of the earliest-submitted failed job, if any. More
// jobs may be submitted after Wait returns.
func (s *Scheduler) Wait() error {
	s.pending.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close shuts the worker pool down and waits for the workers to exit.
// Submit must not be called after Close.
func (s *Scheduler) Close() {
	close(s.jobs)
	s.workers.Wait()
}
