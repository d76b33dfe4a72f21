// Package sched is the parallel analysis scheduler. It has two
// layers:
//
//   - a generic DAG task runner (this file): tasks with dependency
//     edges fan out across a worker pool, respecting the edges —
//     per-function local passes run in any order, the link step waits
//     for every summary, and the inter-procedural lane passes wait
//     for the link;
//
//   - an incremental checker pipeline (pipeline.go) that builds that
//     DAG for a loaded program, consulting a depot.Depot so work
//     whose inputs have not changed is loaded instead of re-run, and
//     using call-graph edges for precise invalidation.
//
// cmd/mcheck (-j/-cache) and cmd/mcheckd both execute through this
// package, so the CLI and the daemon share one execution path.
package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"flashmc/internal/obs"
)

// Task is one schedulable unit of analysis.
type Task struct {
	// ID names the task; it must be unique within a Run.
	ID string
	// Deps lists task IDs that must complete (successfully) first.
	Deps []string
	// Run does the work. An error fails the task and skips its
	// transitive dependents.
	Run func() error

	// enqueuedAt stamps when the task became ready, for queue-wait
	// accounting.
	enqueuedAt time.Time
	// args are trace-span annotations attached by the task body (via
	// Annotate) and emitted on the task's span when Run returns — the
	// pipeline stamps each task's cache decision this way.
	args map[string]any
}

// Annotate attaches a key/value to the task's trace span. It is only
// safe to call from within the task's own Run (the runner reads the
// annotations after Run returns, on the same goroutine).
func (t *Task) Annotate(key string, v any) {
	if t.args == nil {
		t.args = map[string]any{}
	}
	t.args[key] = v
}

// RunStats describes one scheduler run.
type RunStats struct {
	// Tasks is how many tasks executed (skipped dependents excluded).
	Tasks int
	// MaxQueueDepth is the peak number of ready-but-unclaimed tasks.
	MaxQueueDepth int
	// TaskTime is the summed wall time of all task bodies; with W
	// workers the elapsed time approaches TaskTime/W.
	TaskTime time.Duration
	// QueueWait is the summed time tasks spent ready but unclaimed.
	QueueWait time.Duration
}

var (
	mTasks     = obs.NewCounter("sched_tasks_total", "tasks executed by the DAG scheduler")
	mTaskSecs  = obs.NewHistogram("sched_task_seconds", "wall time of task bodies", nil)
	mQueueWait = obs.NewHistogram("sched_queue_wait_seconds", "time tasks spent ready but unclaimed", nil)
)

// Run executes tasks over workers goroutines, honoring dependency
// edges. It returns the joined errors of all failed tasks; dependents
// of a failed task are skipped and reported as skipped. A dependency
// cycle or an edge to an unknown task fails before anything runs.
func Run(workers int, tasks []*Task) (RunStats, error) {
	return RunTraced(workers, nil, tasks)
}

// RunTraced is Run with a span per executed task recorded on tracer
// (which may be nil), one trace lane per worker.
func RunTraced(workers int, tracer *obs.Tracer, tasks []*Task) (RunStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var stats RunStats
	if len(tasks) == 0 {
		return stats, nil
	}

	byID := make(map[string]*Task, len(tasks))
	for _, t := range tasks {
		if _, dup := byID[t.ID]; dup {
			return stats, fmt.Errorf("sched: duplicate task %q", t.ID)
		}
		byID[t.ID] = t
	}
	indeg := make(map[string]int, len(tasks))
	dependents := make(map[string][]*Task, len(tasks))
	for _, t := range tasks {
		for _, d := range t.Deps {
			if _, ok := byID[d]; !ok {
				return stats, fmt.Errorf("sched: task %q depends on unknown task %q", t.ID, d)
			}
			indeg[t.ID]++
			dependents[d] = append(dependents[d], t)
		}
	}
	// Kahn pre-pass: if the DAG has a cycle, refuse to start rather
	// than deadlock mid-run.
	{
		deg := make(map[string]int, len(indeg))
		for k, v := range indeg {
			deg[k] = v
		}
		var ready []*Task
		for _, t := range tasks {
			if deg[t.ID] == 0 {
				ready = append(ready, t)
			}
		}
		seen := 0
		for len(ready) > 0 {
			t := ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			seen++
			for _, d := range dependents[t.ID] {
				if deg[d.ID]--; deg[d.ID] == 0 {
					ready = append(ready, d)
				}
			}
		}
		if seen != len(tasks) {
			return stats, errors.New("sched: dependency cycle")
		}
	}

	var (
		mu        sync.Mutex
		errs      []error
		failed    = map[string]bool{} // failed or skipped tasks
		remaining = len(tasks)
		queued    int
		ready     = make(chan *Task, len(tasks))
	)
	enqueue := func(t *Task) { // mu held
		queued++
		if queued > stats.MaxQueueDepth {
			stats.MaxQueueDepth = queued
		}
		t.enqueuedAt = time.Now()
		ready <- t
	}
	// finish marks t done (or failed), releasing or skipping its
	// dependents; the last task closes the ready channel.
	var finish func(t *Task, err error)
	finish = func(t *Task, err error) { // mu held
		if err != nil {
			failed[t.ID] = true
			errs = append(errs, err)
		}
		remaining--
		for _, d := range dependents[t.ID] {
			if indeg[d.ID]--; indeg[d.ID] == 0 {
				if failed[t.ID] {
					finish(d, fmt.Errorf("sched: %s skipped: dependency %s failed", d.ID, t.ID))
					continue
				}
				blocked := false
				for _, dep := range d.Deps {
					if failed[dep] {
						blocked = true
						break
					}
				}
				if blocked {
					finish(d, fmt.Errorf("sched: %s skipped: failed dependency", d.ID))
				} else {
					enqueue(d)
				}
			}
		}
		if remaining == 0 {
			close(ready)
		}
	}

	mu.Lock()
	for _, t := range tasks {
		if indeg[t.ID] == 0 {
			enqueue(t)
		}
	}
	mu.Unlock()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for t := range ready {
				wait := time.Since(t.enqueuedAt)
				mu.Lock()
				queued--
				mu.Unlock()
				mQueueWait.ObserveDuration(wait)
				sp := tracer.StartSpan(t.ID, lane)
				start := time.Now()
				err := t.Run()
				dur := time.Since(start)
				for k, v := range t.args {
					sp.Arg(k, v)
				}
				sp.End()
				mTasks.Inc()
				mTaskSecs.ObserveDuration(dur)
				mu.Lock()
				stats.Tasks++
				stats.TaskTime += dur
				stats.QueueWait += wait
				finish(t, err)
				mu.Unlock()
			}
		}(w + 1)
	}
	wg.Wait()
	return stats, errors.Join(errs...)
}
