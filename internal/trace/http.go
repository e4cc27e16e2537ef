package trace

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// SpanJSON is the stable wire shape of one span on /debug/traces.
// Field names are part of the operational surface (the admin trace
// subcommand and CI artifacts consume them) — change deliberately.
type SpanJSON struct {
	Trace      string  `json:"trace"`
	Stage      string  `json:"stage"`
	Outcome    string  `json:"outcome"`
	StartNS    int64   `json:"start_ns"`
	DurationMS float64 `json:"duration_ms"`
	Attrs      []Attr  `json:"attrs,omitempty"`
}

// PageJSON is the /debug/traces response envelope.
type PageJSON struct {
	Recorded uint64     `json:"recorded"`
	Dropped  uint64     `json:"dropped"`
	Spans    []SpanJSON `json:"spans"`
}

// DebugHandler serves the capture buffer as JSON. Query parameters
// filter server-side so a big ring doesn't ship in full:
//
//	trace=<hex id>     only spans of one trace
//	stage=<name>       only one lifecycle stage
//	outcome=<name>     only one outcome token
//	min_ms=<float>     only spans at least this slow
//	limit=<n>          at most n spans (default 4096)
//
// Unknown stage/outcome names match nothing (and report no error):
// the filter vocabulary is discoverable from any unfiltered response.
func (r *Recorder) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		var (
			wantTrace   = ParseID(q.Get("trace"))
			filterTrace = q.Get("trace") != ""
			wantStage   Stage
			filterStage = q.Get("stage") != ""
			wantOut     Outcome
			filterOut   = q.Get("outcome") != ""
			minMS       float64
		)
		if filterStage {
			wantStage, _ = ParseStage(q.Get("stage"))
		}
		if filterOut {
			wantOut, _ = ParseOutcome(q.Get("outcome"))
		}
		if v := q.Get("min_ms"); v != "" {
			minMS, _ = strconv.ParseFloat(v, 64)
		}
		limit := 4096
		if v := q.Get("limit"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				limit = n
			}
		}

		page := PageJSON{Spans: []SpanJSON{}}
		page.Recorded, page.Dropped = r.Stats()
		for _, sp := range r.Snapshot() {
			if filterTrace && sp.TraceID != wantTrace {
				continue
			}
			if filterStage && sp.Stage != wantStage {
				continue
			}
			if filterOut && sp.Outcome != wantOut {
				continue
			}
			durMS := float64(sp.Duration) / float64(time.Millisecond)
			if durMS < minMS {
				continue
			}
			js := SpanJSON{
				Trace:      FormatID(sp.TraceID),
				Stage:      sp.Stage.String(),
				Outcome:    sp.Outcome.String(),
				StartNS:    sp.Start,
				DurationMS: durMS,
			}
			if n := sp.AttrCount(); n > 0 {
				js.Attrs = append(js.Attrs, sp.Attrs[:n]...)
			}
			page.Spans = append(page.Spans, js)
			if len(page.Spans) >= limit {
				break
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(page) //nolint:errcheck // best-effort write to scraper
	})
}
