package serve

import (
	"context"
	"sync"
	"time"

	"ioatsim/internal/bench"
)

// State is a job's lifecycle phase. The legal transitions are
// queued -> running -> {done, failed, canceled} and queued -> canceled;
// terminal states never change.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is an end state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// StreamRecord is one NDJSON line of a job's result stream: either one
// completed experiment (Result set) or the terminal record (Done set,
// with the final state and error). Seq numbers the records of one job
// from zero.
type StreamRecord struct {
	Job    string            `json:"job"`
	Seq    int               `json:"seq"`
	Result *bench.ResultJSON `json:"result,omitempty"`
	Done   bool              `json:"done,omitempty"`
	State  State             `json:"state,omitempty"`
	Error  string            `json:"error,omitempty"`
}

// Job is one submitted benchmark run moving through the queue and the
// worker pool. All mutable fields are guarded by mu; the context is
// created at admission and cancelled by DELETE, client disconnect (for
// attached submissions) or server shutdown.
type Job struct {
	ID string

	cfg     bench.Config
	runners []bench.Runner
	ctx     context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	state    State
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	// records is the job's stream so far: one record per completed
	// experiment, then the terminal record. It only grows; each append
	// closes changed and replaces it, which wakes every stream reader.
	records []StreamRecord
	changed chan struct{}
	done    chan struct{}
}

func newJob(id string, cfg bench.Config, runners []bench.Runner,
	ctx context.Context, cancel context.CancelFunc, now time.Time) *Job {
	return &Job{
		ID:      id,
		cfg:     cfg,
		runners: runners,
		ctx:     ctx,
		cancel:  cancel,
		state:   StateQueued,
		created: now,
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Cancel requests cancellation: a queued job goes terminal immediately,
// a running job's context is cancelled and the worker finishes it. The
// returned state is the job's state after the request.
func (j *Job) Cancel() State {
	j.cancel()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateQueued {
		j.finishLocked(StateCanceled, context.Canceled.Error())
	}
	return j.state
}

// State returns the current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// start moves a queued job to running; it reports false if the job was
// cancelled while queued (the worker must skip it).
func (j *Job) start(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = now
	return true
}

// appendResult records one completed experiment.
func (j *Job) appendResult(res bench.ResultJSON) {
	j.mu.Lock()
	j.appendLocked(StreamRecord{Result: &res})
	j.mu.Unlock()
}

// finish moves the job to a terminal state, emits the terminal stream
// record and wakes every waiter. Subsequent calls are no-ops.
func (j *Job) finish(state State, errMsg string) {
	j.mu.Lock()
	j.finishLocked(state, errMsg)
	j.mu.Unlock()
}

func (j *Job) finishLocked(state State, errMsg string) {
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	j.appendLocked(StreamRecord{Done: true, State: state, Error: errMsg})
	close(j.done)
}

// appendLocked numbers rec, appends it to the record log and wakes the
// stream readers.
func (j *Job) appendLocked(rec StreamRecord) {
	rec.Job, rec.Seq = j.ID, len(j.records)
	j.records = append(j.records, rec)
	close(j.changed)
	j.changed = make(chan struct{})
}

// since returns the records from the n-th on, and a channel closed when
// the next one is appended. Appends never touch the returned records,
// so the caller reads them without the lock.
func (j *Job) since(n int) ([]StreamRecord, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records[n:], j.changed
}

// Status is a job's wire form: summary fields always, Results only when
// the caller asks for the detail view.
type Status struct {
	ID       string             `json:"id"`
	State    State              `json:"state"`
	Error    string             `json:"error,omitempty"`
	Runners  []string           `json:"runners"`
	Seed     uint64             `json:"seed"`
	Scale    float64            `json:"scale"`
	Created  time.Time          `json:"created"`
	Started  *time.Time         `json:"started,omitempty"`
	Finished *time.Time         `json:"finished,omitempty"`
	WallMS   float64            `json:"wall_ms,omitempty"`
	Results  []bench.ResultJSON `json:"results,omitempty"`
}

// Status snapshots the job. withResults includes the per-experiment
// results (large); the list endpoint leaves them out.
func (j *Job) Status(withResults bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	ids := make([]string, len(j.runners))
	for i, r := range j.runners {
		ids[i] = r.ID
	}
	st := Status{
		ID:      j.ID,
		State:   j.state,
		Error:   j.errMsg,
		Runners: ids,
		Seed:    j.cfg.Seed,
		Scale:   j.cfg.Scale,
		Created: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
		if !j.started.IsZero() {
			st.WallMS = float64(j.finished.Sub(j.started).Microseconds()) / 1e3
		}
	}
	if withResults {
		for _, rec := range j.records {
			if rec.Result != nil {
				st.Results = append(st.Results, *rec.Result)
			}
		}
	}
	return st
}
