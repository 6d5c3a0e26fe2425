package sched

import (
	"testing"

	"thermaldc/internal/model"
	"thermaldc/internal/power"
	"thermaldc/internal/workload"
)

// fuzzBytes hands out the fuzz input one byte at a time, zeros once it
// runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzScheduleIndex decodes a small data center, a plan shaped like the
// first step's (TC constant per node type and P-state, or per node), the
// initial core free times and a task stream from the input, and holds
// ScheduleWith(PaperPolicy{}) to referenceScheduleWith at every arrival,
// with the dispatch index matching a rebuild after each one. The
// scheduler under test is built once through Group from the dense TC and
// once by New from the plan's groups. Times, execution times and rates sit
// on coarse grids so ties are common.
func FuzzScheduleIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 7, 2, 3, 1, 0, 1, 2, 5, 3, 1, 4, 1, 9, 200, 3, 17, 4, 4, 4, 1, 0, 0, 2, 3})
	f.Add([]byte{0, 15, 0, 2, 0, 9, 2, 8, 1, 0, 3, 0, 250, 1, 1, 1, 1, 0, 0, 0, 6, 6, 6, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		dc := &model.DataCenter{}
		for n := 1 + in.next()%2; n > 0; n-- {
			ps := 1 + in.next()%3
			freq, volt := make([]float64, ps), make([]float64, ps)
			for p := range freq {
				freq[p], volt[p] = 2000-400*float64(p), 1
			}
			dc.NodeTypes = append(dc.NodeTypes, model.NodeType{
				NumCores: 1 + in.next()%16,
				Core:     power.CoreModel{FreqMHz: freq, Voltage: volt, P0Power: 0.1},
			})
		}
		for n := 1 + in.next()%6; n > 0; n-- {
			dc.Nodes = append(dc.Nodes, model.Node{Type: in.next() % len(dc.NodeTypes)})
		}
		ntask := 1 + in.next()%3
		dc.ECS = make(model.ECS, ntask)
		for i := range dc.ECS {
			dc.TaskTypes = append(dc.TaskTypes, model.TaskType{Reward: 1, RelDeadline: 3, ArrivalRate: 1})
			dc.ECS[i] = make([][]float64, len(dc.NodeTypes))
			for nt := range dc.NodeTypes {
				off := dc.NodeTypes[nt].OffState()
				dc.ECS[i][nt] = make([]float64, off+1)
				for p := 0; p < off; p++ {
					if v := in.next() % 5; v > 0 {
						dc.ECS[i][nt][p] = 1 / (0.5 * float64(v))
					}
				}
			}
		}

		perNode := in.next()%2 == 1
		var pstates, node []int
		for j := range dc.Nodes {
			nt := dc.NodeType(j)
			for c := 0; c < nt.NumCores; c++ {
				pstates = append(pstates, in.next()%(nt.OffState()+1))
				node = append(node, j)
			}
		}
		tc := make([][]float64, ntask)
		for i := range tc {
			byKey := map[[2]int]float64{}
			tc[i] = make([]float64, len(pstates))
			for k := range tc[i] {
				key := [2]int{node[k], -1}
				if !perNode {
					key = [2]int{dc.Nodes[node[k]].Type, pstates[k]}
				}
				v, ok := byKey[key]
				if !ok {
					v = 0.125 * float64(in.next()%6)
					byKey[key] = v
				}
				tc[i][k] = v
			}
		}
		// The same plan by group, off cores in none: one group per (node
		// type, P-state) as Stage 3 holds it, or per (node, P-state) for a
		// per-node TC, whose cores at one P-state share execution times.
		coreGroup := make([]int32, len(pstates))
		var groupRate []float64
		ids := map[[2]int]int32{}
		for k, ps := range pstates {
			if ps == dc.NodeType(node[k]).OffState() {
				coreGroup[k] = -1
				continue
			}
			key := [2]int{dc.Nodes[node[k]].Type, ps}
			if perNode {
				key = [2]int{node[k], ps}
			}
			g, ok := ids[key]
			if !ok {
				g = int32(len(ids))
				ids[key] = g
				for i := range tc {
					groupRate = append(groupRate, tc[i][k])
				}
			}
			coreGroup[k] = g
		}

		start := 0.5 * float64(in.next()%3)
		initFree := make([]float64, len(pstates))
		for k := range initFree {
			initFree[k] = start + 0.5*float64(in.next()%4)
		}
		var tasks []workload.Task
		now := start
		for len(tasks) < 64 && len(in) > 0 {
			now += 0.25 * float64(in.next()%4)
			task := workload.Task{Type: in.next() % ntask, Arrival: now}
			task.Deadline = now + 0.5*float64(in.next()%12)
			tasks = append(tasks, task)
		}

		for _, build := range []struct {
			name string
			mk   func() (*Scheduler, error)
		}{
			{"dense", func() (*Scheduler, error) { return NewDense(dc, pstates, tc) }},
			{"grouped", func() (*Scheduler, error) { return New(dc, pstates, coreGroup, ntask, groupRate) }},
		} {
			ref := newRef(dc, pstates, tc)
			got, err := build.mk()
			if err != nil {
				t.Fatal(err)
			}
			ref.startTime = start
			got.SetStartTime(start)
			diffStream(t, "fuzz "+build.name, ref, got, PaperPolicy{}, PaperPolicy{}, tasks,
				append([]float64(nil), initFree...), append([]float64(nil), initFree...))
		}
	})
}
