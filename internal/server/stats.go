package server

import (
	"time"

	"vsfs/internal/guard"
)

// PhaseMillis breaks cumulative solve time down by pipeline phase: the
// sums of the vsfs_solve_phase_seconds series, which the solved runs'
// phase records feed.
type PhaseMillis struct {
	Andersen float64 `json:"andersenMs"`
	MemSSA   float64 `json:"memSSAMs"`
	SVFG     float64 `json:"svfgMs"`
	Solve    float64 `json:"solveMs"`
}

// LastShape mirrors the vsfs_shape_* gauges: the Table II-style feature
// vector of the most recent successful solve (zero before any solve).
type LastShape struct {
	Instrs          int     `json:"instrs"`
	AddressTaken    int     `json:"addressTaken"`
	StoreLoadRatio  float64 `json:"storeLoadRatio"`
	SingletonRatio  float64 `json:"singletonRatio"`
	IndirectDensity float64 `json:"indirectDensity"`
}

// StatsSnapshot is the JSON body of GET /stats. Every field is read
// back from the metrics registry (or live server state), so /stats and
// /metrics always agree.
type StatsSnapshot struct {
	Requests        int64 `json:"requests"`
	AnalyzeRequests int64 `json:"analyzeRequests"`
	QueryRequests   int64 `json:"queryRequests"`
	CheckRequests   int64 `json:"checkRequests"`

	// RequestsByMode counts accepted analysis requests by requested
	// backend (vsfs, sfs, cfgfree, andersen).
	RequestsByMode map[string]int64 `json:"requestsByMode"`

	FindingsReported int64 `json:"findingsReported"`

	CacheHits    int64 `json:"cacheHits"`
	CacheMisses  int64 `json:"cacheMisses"`
	CacheEntries int   `json:"cacheEntries"`

	SingleFlightShared int64 `json:"singleFlightShared"`

	Solves          int64 `json:"solves"`
	SolvesOK        int64 `json:"solvesOK"`
	SolveErrors     int64 `json:"solveErrors"`
	SolvesCancelled int64 `json:"solvesCancelled"`
	ShedRequests    int64 `json:"shedRequests"`
	QueueDepth      int   `json:"queueDepth"`
	Workers         int   `json:"workers"`
	WorkersBusy     int   `json:"workersBusy"`

	GuardPanics     int64 `json:"guardPanics"`
	DegradedResults int64 `json:"degradedResults"`
	BudgetExceeded  int64 `json:"budgetExceeded"`

	UptimeSeconds float64 `json:"uptimeSeconds"`

	AvgSolveMs float64     `json:"avgSolveMs"`
	MaxSolveMs float64     `json:"maxSolveMs"`
	Phase      PhaseMillis `json:"phase"`

	LastShape LastShape `json:"lastShape"`

	// CacheBodyBytes is the memory held by the cache's stored /analyze
	// bodies, one per entry that has been rendered.
	CacheBodyBytes int `json:"cacheBodyBytes"`
}

func (s *Server) snapshot() StatsSnapshot {
	m := s.met
	phaseSum := func(ph string) float64 {
		return m.phaseSeconds.With("phase", ph).Sum() * 1e3
	}
	snap := StatsSnapshot{
		Requests:        int64(m.httpRequests.Total()),
		AnalyzeRequests: int64(m.httpRequests.With("endpoint", "analyze").Value()),
		QueryRequests:   int64(m.httpRequests.With("endpoint", "query").Value()),
		CheckRequests:   int64(m.httpRequests.With("endpoint", "check").Value()),

		FindingsReported: int64(m.findingsTotal.Total()),

		CacheHits:    int64(m.cacheReqs.With("result", "hit").Value()),
		CacheMisses:  int64(m.cacheReqs.With("result", "miss").Value()),
		CacheEntries: s.cache.len(),

		SingleFlightShared: int64(m.flightShared.Value()),

		Solves:          int64(m.solvesStarted.Value()),
		SolvesOK:        int64(m.solveOutcomes.With("outcome", "ok").Value()),
		SolveErrors:     int64(m.solveOutcomes.With("outcome", "error").Value()),
		SolvesCancelled: int64(m.solveOutcomes.With("outcome", "cancelled").Value()),
		ShedRequests:    int64(m.shedRequests.Value()),
		QueueDepth:      s.pool.queued(),
		Workers:         s.cfg.Workers,
		WorkersBusy:     s.pool.running(),

		GuardPanics:     int64(m.guardPanics.Total()),
		DegradedResults: int64(m.degradedResults.Value()),
		BudgetExceeded:  int64(m.budgetExceeded.Total()),

		UptimeSeconds: time.Since(s.started).Seconds(),

		MaxSolveMs: m.solveMax.Value() * 1e3,
		Phase: PhaseMillis{
			Andersen: phaseSum(guard.PhaseAndersen),
			MemSSA:   phaseSum(guard.PhaseMemSSA),
			SVFG:     phaseSum(guard.PhaseSVFG),
			Solve:    phaseSum(guard.PhaseSolve),
		},

		LastShape: LastShape{
			Instrs:          int(m.shapeInstrs.Value()),
			AddressTaken:    int(m.shapeAddressTaken.Value()),
			StoreLoadRatio:  m.shapeStoreLoadRatio.Value(),
			SingletonRatio:  m.shapeSingletonRatio.Value(),
			IndirectDensity: m.shapeIndirectDensity.Value(),
		},

		CacheBodyBytes: s.cache.storedBodyBytes(),
	}
	snap.RequestsByMode = make(map[string]int64, len(analysisModes))
	for _, mode := range analysisModes {
		snap.RequestsByMode[mode] = int64(m.requestsByMode.With("mode", mode).Value())
	}
	if n := m.solveSeconds.Count(); n > 0 {
		snap.AvgSolveMs = m.solveSeconds.Sum() * 1e3 / float64(n)
	}
	return snap
}
