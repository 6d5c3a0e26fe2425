package thermaldc_test

import (
	"encoding/json"
	"testing"

	"thermaldc"
)

// customDataCenterJSON rebuilds the data center of the custom-datacenter
// example (the two Table-I servers plus a 16-core micro-server, 30 nodes,
// 2 CRACs, 6 task types, Pconst halfway between the power bounds) and
// returns its JSON.
func customDataCenterJSON(t testing.TB) []byte {
	t.Helper()
	types := thermaldc.TableINodeTypes(0.3)
	types = append(types, thermaldc.NodeType{
		Name:      "Custom MicroBlade",
		BasePower: 0.120,
		NumCores:  16,
		Core: thermaldc.CoreModel{
			FreqMHz:     []float64{2000, 1500, 1000},
			Voltage:     []float64{1.1, 1.0, 0.9},
			P0Power:     0.006,
			StaticShare: 0.25,
		},
		AirFlow: 0.03,
	})
	dc := &thermaldc.DataCenter{
		NodeTypes:   types,
		CRACs:       make([]thermaldc.CRAC, 2),
		RedlineNode: 25,
		RedlineCRAC: 40,
	}
	for j := 0; j < 30; j++ {
		dc.Nodes = append(dc.Nodes, thermaldc.Node{Type: j % 3})
	}
	lay := thermaldc.DefaultLayoutConfig()
	if err := thermaldc.ArrangeLayout(dc, lay); err != nil {
		t.Fatal(err)
	}
	if err := thermaldc.GenerateAlpha(dc, lay, 1); err != nil {
		t.Fatal(err)
	}
	wl := thermaldc.DefaultWorkloadConfig(0.2)
	wl.T = 6
	wl.NodeTypePerf = []float64{0.6, 1.0, 0.4}
	if err := thermaldc.GenerateWorkload(dc, wl, 2); err != nil {
		t.Fatal(err)
	}
	tm, err := thermaldc.NewThermalModel(dc)
	if err != nil {
		t.Fatal(err)
	}
	pmin, pmax, err := thermaldc.PowerBounds(dc, tm, fuzzSearch)
	if err != nil {
		t.Fatal(err)
	}
	dc.Pconst = (pmin + pmax) / 2
	raw, err := json.Marshal(dc)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// fuzzSearch is a coarse outlet grid that keeps each fuzzed solve short.
var fuzzSearch = thermaldc.SearchConfig{Lo: 5, Hi: 25, CoarseStep: 10, FineStep: 5}

// FuzzDataCenterJSON feeds arbitrary bytes through the DataCenter JSON
// boundary: decoding, Validate, the thermal model and a coarse first-step
// solve. Each step may reject its input with an error; none may panic.
// Inputs beyond 64 nodes, 4 CRACs, 8 task types or 64 cores per node are
// skipped after validation, to bound each solve's time and memory. make
// ci runs it for 10 s, seeded with the custom-datacenter example's JSON.
func FuzzDataCenterJSON(f *testing.F) {
	f.Add(customDataCenterJSON(f))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var dc thermaldc.DataCenter
		if json.Unmarshal(data, &dc) != nil || dc.Validate() != nil {
			return
		}
		if len(dc.Nodes) > 64 || len(dc.CRACs) > 4 || len(dc.TaskTypes) > 8 {
			return
		}
		for _, nt := range dc.NodeTypes {
			if nt.NumCores > 64 {
				return
			}
		}
		tm, err := thermaldc.NewThermalModel(&dc)
		if err != nil {
			return
		}
		opts := thermaldc.DefaultAssignOptions()
		opts.Search = fuzzSearch
		thermaldc.ThreeStage(&thermaldc.Scenario{DC: &dc, Thermal: tm}, opts) // an error is fine
	})
}
