package workload

import (
	"bytes"
	"strings"
	"testing"

	"thermaldc/internal/stats"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dc, _ := genDC(t, 0.1, 31)
	tasks := GenerateTasks(dc, 5, stats.NewRand(2))
	var buf bytes.Buffer
	if err := SaveTasks(&buf, tasks); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTasks(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tasks) {
		t.Fatalf("round trip lost tasks: %d vs %d", len(back), len(tasks))
	}
	for i := range tasks {
		if back[i] != tasks[i] {
			t.Fatalf("task %d differs: %+v vs %+v", i, back[i], tasks[i])
		}
	}
}

func TestLoadTasksValidates(t *testing.T) {
	cases := map[string]string{
		"bad json":         `{not json`,
		"negative arrival": `[{"ID":0,"Type":0,"Arrival":-1,"Deadline":2}]`,
		"deadline<arrival": `[{"ID":0,"Type":0,"Arrival":5,"Deadline":2}]`,
		"negative type":    `[{"ID":0,"Type":-1,"Arrival":1,"Deadline":2}]`,
	}
	for name, raw := range cases {
		if _, err := LoadTasks(strings.NewReader(raw)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLoadTasksResorts(t *testing.T) {
	raw := `[{"ID":1,"Type":0,"Arrival":5,"Deadline":7},{"ID":0,"Type":0,"Arrival":1,"Deadline":3}]`
	tasks, err := LoadTasks(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if tasks[0].Arrival != 1 || tasks[1].Arrival != 5 {
		t.Fatalf("not sorted: %+v", tasks)
	}
}

// TestLoadTasksKeepsTiedOrder feeds an unsorted stream in which several
// tasks share an arrival time: the re-sort must keep tied tasks in file
// order, since the scheduler places them in the order it receives them.
func TestLoadTasksKeepsTiedOrder(t *testing.T) {
	var in []Task
	for id := 0; id < 60; id++ {
		// Arrivals 3, 2, 1, 0, 3, 2, ... : unsorted, 15 tasks per instant.
		arr := float64(3 - id%4)
		in = append(in, Task{ID: id, Type: id % 3, Arrival: arr, Deadline: arr + 2})
	}
	var buf strings.Builder
	if err := SaveTasks(&buf, in); err != nil {
		t.Fatal(err)
	}
	tasks, err := LoadTasks(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < len(tasks); n++ {
		a, b := tasks[n-1], tasks[n]
		if a.Arrival > b.Arrival || (a.Arrival == b.Arrival && a.ID > b.ID) {
			t.Fatalf("tasks %d and %d out of order: %+v then %+v", n-1, n, a, b)
		}
	}
}
