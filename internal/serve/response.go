package serve

import (
	"errors"
	"net/http"

	"lppart/internal/behav"
	"lppart/internal/cache"
	"lppart/internal/report"
	"lppart/internal/system"
	"lppart/internal/trace"
)

// apiError is an error with an HTTP status and a JSON body. Parse errors
// carry the behavioral source position.
type apiError struct {
	Status int    `json:"-"`
	Err    string `json:"error"`
	// Line/Col locate front-end errors in the served source (1-based;
	// omitted otherwise).
	Line int `json:"line,omitempty"`
	Col  int `json:"col,omitempty"`
}

func (e *apiError) Error() string { return e.Err }

func badRequest(msg string) *apiError {
	return &apiError{Status: http.StatusBadRequest, Err: msg}
}

func internalError(err error) *apiError {
	return &apiError{Status: http.StatusInternalServerError, Err: err.Error()}
}

// parseError maps a behav front-end failure onto the wire: a *SizeError
// becomes 413, a positioned *Error becomes 400 with line/column, and
// anything else a bare 400.
func parseError(err error) *apiError {
	var se *behav.SizeError
	if errors.As(err, &se) {
		return &apiError{Status: http.StatusRequestEntityTooLarge, Err: se.Error()}
	}
	var pe *behav.Error
	if errors.As(err, &pe) {
		return &apiError{Status: http.StatusBadRequest, Err: pe.Msg, Line: pe.Pos.Line, Col: pe.Pos.Col}
	}
	return badRequest(err.Error())
}

// DesignBody is one evaluated implementation on the wire (one Table 1
// row). Energies are in joules.
type DesignBody struct {
	EICache    float64 `json:"e_icache_j"`
	EDCache    float64 `json:"e_dcache_j"`
	EMem       float64 `json:"e_mem_j"`
	EBus       float64 `json:"e_bus_j"`
	EMuP       float64 `json:"e_mup_j"`
	EASIC      float64 `json:"e_asic_j"`
	ETotal     float64 `json:"e_total_j"`
	MuPCycles  int64   `json:"mup_cycles"`
	ASICCycles int64   `json:"asic_cycles"`
	GEQ        int     `json:"geq,omitempty"`
}

func designBody(d *system.Design) *DesignBody {
	if d == nil {
		return nil
	}
	return &DesignBody{
		EICache:    float64(d.EICache),
		EDCache:    float64(d.EDCache),
		EMem:       float64(d.EMem),
		EBus:       float64(d.EBus),
		EMuP:       float64(d.EMuP),
		EASIC:      float64(d.EASIC),
		ETotal:     float64(d.Total()),
		MuPCycles:  d.MuPCycles,
		ASICCycles: d.ASICCycles,
		GEQ:        d.GEQ,
	}
}

// CoreBody describes one chosen ASIC core.
type CoreBody struct {
	Cluster     string  `json:"cluster"`
	ResourceSet string  `json:"resource_set"`
	GEQ         int     `json:"geq"`
	Steps       int     `json:"control_steps"`
	Instances   int     `json:"instances"`
	OF          float64 `json:"of"`
	UASIC       float64 `json:"u_asic"`
	UMuP        float64 `json:"u_mup"`
}

// PartitionResponse is the body of a successful POST /v1/partition: the
// full decision trail plus the application's Table 1 rows, in both
// rendered-text and structured form.
type PartitionResponse struct {
	App            string      `json:"app"`
	Savings        float64     `json:"savings_pct"`
	TimeChange     float64     `json:"time_change_pct"`
	Initial        *DesignBody `json:"initial"`
	Partitioned    *DesignBody `json:"partitioned,omitempty"`
	Cores          []CoreBody  `json:"cores,omitempty"`
	BaselineOF     float64     `json:"baseline_of"`
	MemoHitRate    float64     `json:"memo_hit_rate"`
	Trail          string      `json:"trail"`
	Table1         string      `json:"table1"`
	Verified       bool        `json:"verified"`
	CacheSignature string      `json:"request_key"`
}

// buildPartitionResponse renders an evaluation. Everything in the body is
// a pure function of the evaluation, which is a pure function of the
// request — the byte-determinism contract hangs on that.
func buildPartitionResponse(ev *system.Evaluation, verified bool, key string) *PartitionResponse {
	resp := &PartitionResponse{
		App:            ev.App,
		Savings:        ev.Savings(),
		TimeChange:     ev.TimeChange(),
		Initial:        designBody(ev.Initial),
		Partitioned:    designBody(ev.Partitioned),
		BaselineOF:     ev.Decision.BaselineOF,
		MemoHitRate:    ev.Decision.Memo.HitRate(),
		Trail:          ev.Decision.Trail(),
		Table1:         report.Table1([]*system.Evaluation{ev}),
		Verified:       verified,
		CacheSignature: key,
	}
	for _, ch := range ev.Decision.Choices {
		resp.Cores = append(resp.Cores, CoreBody{
			Cluster:     ch.Region.Label,
			ResourceSet: ch.RS.Name,
			GEQ:         ch.Eval.GEQ,
			Steps:       ch.Binding.Steps,
			Instances:   len(ch.Binding.Instances),
			OF:          ch.Eval.OF,
			UASIC:       ch.Eval.UASIC,
			UMuP:        ch.Eval.UMuP,
		})
	}
	return resp
}

// GeometryBody is one swept cache geometry's outcome.
type GeometryBody struct {
	Sets      int     `json:"sets"`
	Assoc     int     `json:"assoc"`
	LineWords int     `json:"line_words"`
	SizeBytes int     `json:"size_bytes"`
	IHitRate  float64 `json:"i_hit_rate"`
	DHitRate  float64 `json:"d_hit_rate"`
	EICache   float64 `json:"e_icache_j"`
	EDCache   float64 `json:"e_dcache_j"`
	EMem      float64 `json:"e_mem_j"`
	EBus      float64 `json:"e_bus_j"`
	ETotal    float64 `json:"e_total_j"`
	Stalls    int64   `json:"stalls"`
	Summary   string  `json:"summary"`
}

// SweepResponse is the body of a successful POST /v1/sweep.
type SweepResponse struct {
	App            string         `json:"app"`
	ISweep         bool           `json:"isweep"`
	Fetches        int64          `json:"trace_fetches"`
	Reads          int64          `json:"trace_reads"`
	Writes         int64          `json:"trace_writes"`
	TraceBytes     int64          `json:"trace_bytes"`
	ProfilerPasses int            `json:"profiler_passes"`
	Geometries     []GeometryBody `json:"geometries"`
	CacheSignature string         `json:"request_key"`
}

func buildSweepResponse(name string, isweep bool, st trace.Stream, pairs [][2]cache.Config, reps []trace.Report, key string) *SweepResponse {
	resp := &SweepResponse{
		App:            name,
		ISweep:         isweep,
		Fetches:        st.Fetches,
		Reads:          st.Reads,
		Writes:         st.Writes,
		TraceBytes:     st.Bytes,
		ProfilerPasses: trace.Passes(pairs),
		CacheSignature: key,
	}
	for i, rep := range reps {
		swept := pairs[i][1]
		if isweep {
			swept = pairs[i][0]
		}
		resp.Geometries = append(resp.Geometries, GeometryBody{
			Sets:      swept.Sets,
			Assoc:     swept.Assoc,
			LineWords: swept.LineWords,
			SizeBytes: swept.SizeBytes(),
			IHitRate:  rep.I.HitRate(),
			DHitRate:  rep.D.HitRate(),
			EICache:   float64(rep.EICache),
			EDCache:   float64(rep.EDCache),
			EMem:      float64(rep.EMem),
			EBus:      float64(rep.EBus),
			ETotal:    float64(rep.Total()),
			Stalls:    rep.Stalls,
			Summary:   rep.String(),
		})
	}
	return resp
}

// AppBody is one built-in application in GET /v1/apps.
type AppBody struct {
	Name            string  `json:"name"`
	Description     string  `json:"description"`
	PaperSavings    float64 `json:"paper_savings_pct"`
	PaperTimeChange float64 `json:"paper_time_change_pct"`
	SourceBytes     int     `json:"source_bytes"`
}

// AppsResponse is the body of GET /v1/apps.
type AppsResponse struct {
	Apps []AppBody `json:"apps"`
}
