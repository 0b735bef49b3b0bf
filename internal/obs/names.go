package obs

// MetricNames is the single declared registry of every metric family
// the system may register, mapped to its kind. The vsfs-lint
// metricname analyzer cross-checks each Registry registration call
// against this table at vet time, so the dup-name / typo'd-family
// class of bug (two call sites drifting apart, a dashboard scraping a
// name that no longer exists) is impossible to merge: a registration
// absent from this map, a map entry no call site registers, or the
// same name registered under two kinds all fail `make lint`.
//
// Keep entries sorted by name; obs tests and the analyzer enforce the
// naming convention (vsfs_ prefix, [a-z0-9_], counters end in
// _total).
var MetricNames = map[string]Kind{
	"vsfs_attr_charges_total":        KindCounter,
	"vsfs_attr_object_cost":          KindHistogram,
	"vsfs_budget_exceeded_total":     KindCounter,
	"vsfs_build_info":                KindGauge,
	"vsfs_cache_body_bytes":          KindGauge,
	"vsfs_cache_entries":             KindGauge,
	"vsfs_cache_requests_total":      KindCounter,
	"vsfs_degraded_results_total":    KindCounter,
	"vsfs_distinct_versions":         KindGauge,
	"vsfs_findings_total":            KindCounter,
	"vsfs_guard_panics_total":        KindCounter,
	"vsfs_http_requests_total":       KindCounter,
	"vsfs_points_to_sets":            KindHistogram,
	"vsfs_prelabels":                 KindGauge,
	"vsfs_propagations_total":        KindCounter,
	"vsfs_queue_depth":               KindGauge,
	"vsfs_requests_total":            KindCounter,
	"vsfs_shape_address_taken":       KindGauge,
	"vsfs_shape_indirect_density":    KindGauge,
	"vsfs_shape_instrs":              KindGauge,
	"vsfs_shape_singleton_ratio":     KindGauge,
	"vsfs_shape_store_load_ratio":    KindGauge,
	"vsfs_shed_requests_total":       KindCounter,
	"vsfs_singleflight_shared_total": KindCounter,
	"vsfs_solve_max_seconds":         KindGauge,
	"vsfs_solve_phase_seconds":       KindHistogram,
	"vsfs_solve_seconds":             KindHistogram,
	"vsfs_solves_started_total":      KindCounter,
	"vsfs_solves_total":              KindCounter,
	"vsfs_uptime_seconds":            KindGauge,
	"vsfs_workers":                   KindGauge,
	"vsfs_workers_busy":              KindGauge,
	"vsfs_worklist_high_water":       KindGauge,
}
