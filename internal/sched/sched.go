// Package sched is the parallel analysis scheduler. It has two
// layers:
//
//   - one worker pool (this file): pass runs a slice of independent
//     tasks over a fixed number of workers, claimed in slice order;
//
//   - an incremental checker pipeline (pipeline.go) whose Check runs
//     the paper's §7 phases as three passes of that pool — every
//     per-function lane summary, then the link that joins them into
//     the whole-protocol call graph, then every report task (per
//     function, per handler, whole program) — consulting a
//     depot.Depot so work whose inputs have not changed is loaded
//     instead of re-run, and using call-graph edges for precise
//     invalidation.
//
// cmd/mcheck (-j/-cache) and cmd/mcheckd both execute through this
// package, so the CLI and the daemon share one execution path.
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flashmc/internal/obs"
)

// task is one unit of analysis: an ID and a body.
type task struct {
	// ID names the task and its trace span; it is unique within a
	// Check.
	ID  string
	Run func()
	// cache is the task's cache decision, set by its body
	// (runState.lookup) and emitted as the span's "cache" arg. The
	// link task, never cached, leaves it empty.
	cache string
}

// runStats sums one or more passes.
type runStats struct {
	// tasks is how many tasks executed.
	tasks int
	// taskTime is the summed wall time of all task bodies; with W
	// workers a pass's elapsed time approaches its taskTime/W.
	taskTime time.Duration
	// queueWait is the summed time tasks waited, from the start of
	// their pass, for a worker to claim them.
	queueWait time.Duration
}

func (s *runStats) add(o runStats) {
	s.tasks += o.tasks
	s.taskTime += o.taskTime
	s.queueWait += o.queueWait
}

var (
	mTasks     = obs.NewCounter("sched_tasks_total", "tasks executed by the scheduler's worker pool")
	mTaskSecs  = obs.NewHistogram("sched_task_seconds", "wall time of task bodies", nil)
	mQueueWait = obs.NewHistogram("sched_queue_wait_seconds", "time tasks spent ready but unclaimed", nil)
)

// pass runs tasks over workers goroutines (<= 0 means GOMAXPROCS),
// each claiming the next unclaimed task in slice order, and returns
// once all have run. Each task gets a span on tracer (which may be
// nil) on its worker's lane.
func pass(workers int, tracer *obs.Tracer, tasks []*task) runStats {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		start = time.Now()
		next  atomic.Int64
		mu    sync.Mutex
		total runStats
		wg    sync.WaitGroup
	)
	for lane := 1; lane <= min(workers, len(tasks)); lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st runStats
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					break
				}
				t := tasks[i]
				sp := tracer.StartSpan(t.ID, lane)
				t0 := time.Now()
				t.Run()
				dur, wait := time.Since(t0), t0.Sub(start)
				if t.cache != "" {
					sp.Arg("cache", t.cache)
				}
				sp.End()
				mTasks.Inc()
				mTaskSecs.ObserveDuration(dur)
				mQueueWait.ObserveDuration(wait)
				st.add(runStats{1, dur, wait})
			}
			mu.Lock()
			total.add(st)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}

// uniqueIDs refuses a check whose tasks reuse an ID: trace spans and
// Result.Artifacts name tasks by ID.
func uniqueIDs(passes ...[]*task) error {
	seen := map[string]bool{}
	for _, tasks := range passes {
		for _, t := range tasks {
			if seen[t.ID] {
				return fmt.Errorf("sched: duplicate task %q", t.ID)
			}
			seen[t.ID] = true
		}
	}
	return nil
}
