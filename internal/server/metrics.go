package server

import (
	"time"

	"vsfs"
	"vsfs/internal/checker"
	"vsfs/internal/guard"
	"vsfs/internal/obs"
)

// analysisModes are the selectable backend modes, in the facade's Mode
// order; the per-mode request counter materialises one series for each.
var analysisModes = []string{
	vsfs.VSFS.String(),
	vsfs.SFS.String(),
	vsfs.FlowInsensitive.String(),
	vsfs.CFGFree.String(),
}

// serverMetrics wires every service counter, gauge, and histogram into
// one obs.Registry. GET /metrics renders the registry in Prometheus
// text format and GET /stats reads the same series back, so the two
// surfaces can never disagree.
type serverMetrics struct {
	reg *obs.Registry

	httpRequests   *obs.Family // counter by endpoint
	requestsByMode *obs.Family // counter by analysis mode (vsfs|sfs|cfgfree|andersen)
	cacheReqs      *obs.Family // counter by result (hit|miss)
	flightShared   *obs.Series

	solvesStarted *obs.Series
	solveOutcomes *obs.Family // counter by outcome (ok|error|cancelled)
	shedRequests  *obs.Series

	findingsTotal *obs.Family // counter by finding kind (POST /check)

	guardPanics     *obs.Family // counter by phase (pipeline phases + "server")
	degradedResults *obs.Series
	budgetExceeded  *obs.Family // counter by phase and resource

	solveSeconds *obs.Series // histogram: total solve latency
	phaseSeconds *obs.Family // histogram by phase (guard.PipelinePhases)
	solveMax     *obs.Series // gauge: slowest solve seen

	ptsSets     *obs.Series // histogram: (object, version) sets stored per solve
	propagation *obs.Series // counter: cumulative set unions attempted
	worklistHW  *obs.Series // gauge: max main-phase worklist length seen

	distinctVersions *obs.Series // gauge: last solve's distinct meld labels
	prelabels        *obs.Series // gauge: last solve's prelabel count

	// Program-shape gauges: the Table II-style feature vector of the
	// most recent successful solve.
	shapeInstrs          *obs.Series
	shapeAddressTaken    *obs.Series
	shapeStoreLoadRatio  *obs.Series
	shapeSingletonRatio  *obs.Series
	shapeIndirectDensity *obs.Series

	// Attribution series, populated only when Config.Attribution is on.
	attrCharges    *obs.Family // counter by kind (pops|props|sets|melds)
	attrObjectCost *obs.Series // histogram: per-object attributed cost
}

// attrMetricsTopK bounds how many per-object cost observations one
// solve feeds into the vsfs_attr_object_cost histogram.
const attrMetricsTopK = 64

// newServerMetrics registers every family and the instantaneous gauges,
// which read live state (queue, pool, cache, clock) at scrape time.
func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg: r,

		httpRequests: r.CounterVec("vsfs_http_requests_total",
			"HTTP requests received, by endpoint."),
		requestsByMode: r.CounterVec("vsfs_requests_total",
			"Analysis requests accepted, by requested backend mode."),
		cacheReqs: r.CounterVec("vsfs_cache_requests_total",
			"Result-cache lookups, by result."),
		flightShared: r.Counter("vsfs_singleflight_shared_total",
			"Requests coalesced into another request's in-flight solve."),

		solvesStarted: r.Counter("vsfs_solves_started_total",
			"Solves handed to the worker pool."),
		solveOutcomes: r.CounterVec("vsfs_solves_total",
			"Completed solves, by outcome."),
		shedRequests: r.Counter("vsfs_shed_requests_total",
			"Solves shed with 503 because the queue was full."),

		findingsTotal: r.CounterVec("vsfs_findings_total",
			"Checker findings reported by POST /check (after suppressions), by kind."),

		guardPanics: r.CounterVec("vsfs_guard_panics_total",
			"Pipeline panics isolated by the guard layer, by phase."),
		degradedResults: r.Counter("vsfs_degraded_results_total",
			"Solves that exhausted their budget and fell down the backend ladder."),
		budgetExceeded: r.CounterVec("vsfs_budget_exceeded_total",
			"Budget breaches, by pipeline phase and exhausted resource."),

		solveSeconds: r.Histogram("vsfs_solve_seconds",
			"End-to-end solve latency (parse through main phase).", obs.LatencyBuckets),
		phaseSeconds: r.HistogramVec("vsfs_solve_phase_seconds",
			"Solve latency broken down by pipeline phase.", obs.LatencyBuckets),
		solveMax: r.Gauge("vsfs_solve_max_seconds",
			"Slowest successful solve observed."),

		ptsSets: r.Histogram("vsfs_points_to_sets",
			"Points-to sets stored by the main phase, per solve.", obs.SizeBuckets),
		propagation: r.Counter("vsfs_propagations_total",
			"Cumulative set unions attempted by main-phase solving."),
		worklistHW: r.Gauge("vsfs_worklist_high_water",
			"Largest main-phase worklist length observed across solves."),

		distinctVersions: r.Gauge("vsfs_distinct_versions",
			"Distinct meld-labelling versions in the most recent VSFS solve."),
		prelabels: r.Gauge("vsfs_prelabels",
			"Prelabel atoms allocated in the most recent VSFS solve."),

		shapeInstrs: r.Gauge("vsfs_shape_instrs",
			"IR instructions of the most recent successful solve."),
		shapeAddressTaken: r.Gauge("vsfs_shape_address_taken",
			"Address-taken abstract objects of the most recent successful solve."),
		shapeStoreLoadRatio: r.Gauge("vsfs_shape_store_load_ratio",
			"Store/load ratio of the most recent successful solve."),
		shapeSingletonRatio: r.Gauge("vsfs_shape_singleton_ratio",
			"Fraction of address-taken objects that are singletons in the most recent successful solve."),
		shapeIndirectDensity: r.Gauge("vsfs_shape_indirect_density",
			"Estimated indirect value-flow edges per instruction of the most recent successful solve."),

		attrCharges: r.CounterVec("vsfs_attr_charges_total",
			"Per-object cost-attribution charges across attributed solves, by kind."),
		attrObjectCost: r.Histogram("vsfs_attr_object_cost",
			"Attributed cost (propagations + pops + melds) per hot object, per attributed solve.", obs.SizeBuckets),
	}
	obs.RegisterBuildInfo(r)

	r.GaugeFunc("vsfs_queue_depth",
		"Solves waiting for a worker right now.",
		func() float64 { return float64(s.pool.queued()) })
	r.GaugeFunc("vsfs_workers_busy",
		"Workers executing a solve right now.",
		func() float64 { return float64(s.pool.running()) })
	r.GaugeFunc("vsfs_workers",
		"Size of the worker pool.",
		func() float64 { return float64(s.cfg.Workers) })
	r.GaugeFunc("vsfs_cache_entries",
		"Solved programs currently cached.",
		func() float64 { return float64(s.cache.len()) })
	r.GaugeFunc("vsfs_cache_body_bytes",
		"Bytes of rendered /analyze bodies held by the result cache.",
		func() float64 { return float64(s.cache.storedBodyBytes()) })
	r.GaugeFunc("vsfs_uptime_seconds",
		"Seconds since the server was created.",
		func() float64 { return time.Since(s.started).Seconds() })

	// Materialise the label combinations /stats reads, so a fresh server
	// exposes zeros rather than absent series.
	for _, ep := range []string{"analyze", "query", "check"} {
		m.httpRequests.With("endpoint", ep)
	}
	for _, k := range checker.Kinds() {
		m.findingsTotal.With("kind", string(k))
	}
	for _, res := range []string{"hit", "miss"} {
		m.cacheReqs.With("result", res)
	}
	for _, mode := range analysisModes {
		m.requestsByMode.With("mode", mode)
	}
	for _, out := range []string{"ok", "error", "cancelled"} {
		m.solveOutcomes.With("outcome", out)
	}
	for _, ph := range guard.PipelinePhases {
		m.phaseSeconds.With("phase", ph)
		m.guardPanics.With("phase", ph)
	}
	m.guardPanics.With("phase", "server")
	for _, kind := range []string{"pops", "props", "sets", "melds"} {
		m.attrCharges.With("kind", kind)
	}
	return m
}

// observeSolve folds one successful run into the registry: latency by
// phase, read from the run's phase record (a phase the run skipped
// observes zero), solver effort, and the versioning quantities the
// paper's Table III tracks.
func (m *serverMetrics) observeSolve(res *vsfs.Result) {
	var total time.Duration
	for _, ph := range guard.PipelinePhases {
		d := res.PhaseWall(ph)
		total += d
		m.phaseSeconds.With("phase", ph).Observe(d.Seconds())
	}
	m.solveSeconds.Observe(total.Seconds())
	m.solveMax.SetMax(total.Seconds())

	st := res.Stats()
	m.ptsSets.Observe(float64(st.PtsSets))
	m.propagation.Add(float64(st.Propagations))
	m.worklistHW.SetMax(float64(st.WorklistHighWater))
	if st.Mode == "vsfs" {
		m.distinctVersions.Set(float64(st.DistinctVersions))
		m.prelabels.Set(float64(st.Prelabels))
	}

	sh := res.Shape()
	m.shapeInstrs.Set(float64(sh.Instrs))
	m.shapeAddressTaken.Set(float64(sh.AddressTaken))
	m.shapeStoreLoadRatio.Set(sh.StoreLoadRatio)
	m.shapeSingletonRatio.Set(sh.SingletonRatio)
	m.shapeIndirectDensity.Set(sh.IndirectDensity)

	if a := res.Attr(); a != nil {
		m.attrCharges.With("kind", "pops").Add(float64(a.TotalPops()))
		m.attrCharges.With("kind", "props").Add(float64(a.TotalProps()))
		m.attrCharges.With("kind", "sets").Add(float64(a.TotalSets()))
		m.attrCharges.With("kind", "melds").Add(float64(a.TotalMelds()))
		for _, h := range res.HotObjects(attrMetricsTopK) {
			m.attrObjectCost.Observe(float64(h.Propagations + h.Pops + h.Melds))
		}
	}
}
