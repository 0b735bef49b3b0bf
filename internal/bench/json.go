package bench

import (
	"encoding/json"
	"io"
)

// JSONRow is one benchmark's Table II and Table III quantities in
// machine-readable form, with times in milliseconds and memory in MB
// to match the rendered tables.
type JSONRow struct {
	Bench string `json:"bench"`
	Desc  string `json:"desc"`

	// Table II: benchmark characteristics.
	Nodes         int `json:"nodes"`
	DirectEdges   int `json:"directEdges"`
	IndirectEdges int `json:"indirectEdges"`
	TopLevel      int `json:"topLevel"`
	AddressTaken  int `json:"addressTaken"`

	// Table III: time and modelled memory.
	AndersenMs    float64 `json:"andersenMs"`
	AndersenMemMB float64 `json:"andersenMemMB"`
	SFSMs         float64 `json:"sfsMs"`
	SFSMemMB      float64 `json:"sfsMemMB"`
	SFSOOM        bool    `json:"sfsOOM,omitempty"`
	VersionMs     float64 `json:"versionMs"`
	VSFSMs        float64 `json:"vsfsMs"`
	VSFSMemMB     float64 `json:"vsfsMemMB"`
	CfgfreeMs     float64 `json:"cfgfreeMs"`
	CfgfreeMemMB  float64 `json:"cfgfreeMemMB"`
	Speedup       float64 `json:"speedup"`
	MemRatio      float64 `json:"memRatio"`

	// Checker suite overhead on the solved VSFS facts.
	CheckMs       float64 `json:"checkMs"`
	CheckFindings int     `json:"checkFindings"`
}

// BackendRow is one (benchmark, backend) measurement: the flat shape
// downstream dashboards consume to track each backend's time and
// memory independently. VSFS's time includes its versioning phase.
type BackendRow struct {
	Bench   string  `json:"bench"`
	Backend string  `json:"backend"` // andersen | sfs | vsfs | cfgfree
	Ms      float64 `json:"ms"`
	MemMB   float64 `json:"memMB"`
	OOM     bool    `json:"oom,omitempty"`
}

// JSONReport is the body of a BENCH_*.json artifact: every row, the
// per-backend rows, and the geometric means reported in Table III's
// Average line.
type JSONReport struct {
	Rows            []JSONRow    `json:"rows"`
	Backends        []BackendRow `json:"backends"`
	GeoMeanSpeedup  float64      `json:"geoMeanSpeedup"`
	GeoMeanMemRatio float64      `json:"geoMeanMemRatio"`
}

// JSONReportOf converts measured rows into the artifact shape. OOM rows
// are excluded from both geomeans, mirroring FormatTable3: neither ratio
// is meaningful when the SFS baseline never completed.
func JSONReportOf(rows []Row) JSONReport {
	rep := JSONReport{Rows: make([]JSONRow, 0, len(rows))}
	var speedups, memRatios []float64
	for _, r := range rows {
		rep.Rows = append(rep.Rows, JSONRow{
			Bench:         r.Profile.Name,
			Desc:          r.Profile.Desc,
			Nodes:         r.Nodes,
			DirectEdges:   r.DirectEdges,
			IndirectEdges: r.IndirectEdges,
			TopLevel:      r.TopLevel,
			AddressTaken:  r.AddressTaken,
			AndersenMs:    ms(r.AndersenTime),
			AndersenMemMB: mb(r.AndersenMem),
			SFSMs:         ms(r.SFSTime),
			SFSMemMB:      mb(r.SFSMem),
			SFSOOM:        r.SFSOOM,
			VersionMs:     ms(r.VersionTime),
			VSFSMs:        ms(r.VSFSTime),
			VSFSMemMB:     mb(r.VSFSMem),
			CfgfreeMs:     ms(r.CfgfreeTime),
			CfgfreeMemMB:  mb(r.CfgfreeMem),
			Speedup:       r.Speedup,
			MemRatio:      r.MemRatio,
			CheckMs:       ms(r.CheckTime),
			CheckFindings: r.CheckFindings,
		})
		rep.Backends = append(rep.Backends,
			BackendRow{Bench: r.Profile.Name, Backend: "andersen", Ms: ms(r.AndersenTime), MemMB: mb(r.AndersenMem)},
			BackendRow{Bench: r.Profile.Name, Backend: "sfs", Ms: ms(r.SFSTime), MemMB: mb(r.SFSMem), OOM: r.SFSOOM},
			BackendRow{Bench: r.Profile.Name, Backend: "vsfs", Ms: ms(r.VSFSTime + r.VersionTime), MemMB: mb(r.VSFSMem)},
			BackendRow{Bench: r.Profile.Name, Backend: "cfgfree", Ms: ms(r.CfgfreeTime), MemMB: mb(r.CfgfreeMem)},
		)
		if !r.SFSOOM {
			speedups = append(speedups, r.Speedup)
			memRatios = append(memRatios, r.MemRatio)
		}
	}
	rep.GeoMeanSpeedup = geoMean(speedups)
	rep.GeoMeanMemRatio = geoMean(memRatios)
	return rep
}

// WriteJSON renders rows as an indented JSON artifact.
func WriteJSON(w io.Writer, rows []Row) error {
	data, err := json.MarshalIndent(JSONReportOf(rows), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
