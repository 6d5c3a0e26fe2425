package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// SaveTasks writes a task stream as JSON, so generated (or traced)
// workloads can be replayed across runs and tools.
func SaveTasks(w io.Writer, tasks []Task) error {
	return json.NewEncoder(w).Encode(tasks)
}

// LoadTasks reads a task stream written by SaveTasks, re-sorts it by
// arrival (defensively; a stable sort, so tasks with tied arrivals keep
// their file order and replay in it) and validates basic invariants. Malformed input —
// bad JSON, trailing data after the array, or out-of-range fields — is an
// error, never a panic or a silently truncated stream.
func LoadTasks(r io.Reader) ([]Task, error) {
	var tasks []Task
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tasks); err != nil {
		return nil, fmt.Errorf("workload: decoding tasks: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("workload: trailing data after task array")
	}
	for i, t := range tasks {
		if t.Arrival < 0 {
			return nil, fmt.Errorf("workload: task %d has negative arrival %g", i, t.Arrival)
		}
		if t.Deadline < t.Arrival {
			return nil, fmt.Errorf("workload: task %d deadline %g before arrival %g", i, t.Deadline, t.Arrival)
		}
		if t.Type < 0 {
			return nil, fmt.Errorf("workload: task %d has negative type", i)
		}
	}
	sort.SliceStable(tasks, func(a, b int) bool { return tasks[a].Arrival < tasks[b].Arrival })
	return tasks, nil
}
