package audit

import (
	"encoding/base64"
	"encoding/json"
	"net/http"
	"strconv"

	"jxtaoverlay/internal/trace"
)

// RecordJSON is the stable wire shape of one event on /debug/audit.
// Field names are part of the operational surface (the admin audit
// subcommand and CI artifacts consume them) — change deliberately.
type RecordJSON struct {
	Seq    uint64 `json:"seq"`
	TimeNS int64  `json:"time_ns"`
	Kind   string `json:"kind"`
	Peer   string `json:"peer"`
	Op     string `json:"op"`
	Reason string `json:"reason"`
	Trace  string `json:"trace,omitempty"`
}

// PageJSON is the /debug/audit response envelope. Head and Seq are the
// live chain state — scrape them periodically and you hold the trust
// point that makes rollback provable (Verify's ExpectHead/ExpectSeq).
type PageJSON struct {
	Seq         uint64       `json:"seq"`
	Head        string       `json:"head"`
	Records     uint64       `json:"records"`
	Checkpoints uint64       `json:"checkpoints"`
	Lost        uint64       `json:"lost"`
	Events      []RecordJSON `json:"events"`
}

// DebugHandler serves the in-memory event ring as JSON. Query
// parameters filter server-side so a big ring doesn't ship in full:
//
//	kind=<name>      only events of one kind (e.g. rate-limited)
//	peer=<id>        only one peer
//	op=<name>        only one operation
//	trace=<hex id>   only events of one trace
//	since=<seq>      only events with a later sequence number
//	limit=<n>        at most n events (default: the whole ring, 4096)
//
// Events return in ring order (oldest surviving first). The ring is a
// query convenience; the journal on disk is the authoritative record.
func (j *Journal) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		var (
			kind      = q.Get("kind")
			peer      = q.Get("peer")
			op        = q.Get("op")
			wantTrace = trace.ParseID(q.Get("trace"))
			filterTr  = q.Get("trace") != ""
			since     uint64
		)
		if v := q.Get("since"); v != "" {
			since, _ = strconv.ParseUint(v, 10, 64)
		}
		limit := ringSize
		if v := q.Get("limit"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				limit = n
			}
		}

		page := PageJSON{Events: []RecordJSON{}}
		j.log.Lock()
		page.Seq = j.seq
		page.Head = base64.StdEncoding.EncodeToString(j.head[:])
		page.Records = j.appended
		page.Checkpoints = j.ckpts
		page.Lost = j.lost
		n := len(j.ring)
		for i := 0; i < n && len(page.Events) < limit; i++ {
			e := j.ring[(j.ringNext+i)%n]
			if e.seq == 0 || e.seq <= since {
				continue
			}
			if kind != "" && e.ev.Kind != kind {
				continue
			}
			if peer != "" && e.ev.Peer != peer {
				continue
			}
			if op != "" && e.ev.Op != op {
				continue
			}
			if filterTr && e.ev.Trace != wantTrace {
				continue
			}
			js := RecordJSON{
				Seq: e.seq, TimeNS: e.time,
				Kind: e.ev.Kind, Peer: e.ev.Peer, Op: e.ev.Op, Reason: e.ev.Reason,
			}
			if e.ev.Trace != 0 {
				js.Trace = trace.FormatID(e.ev.Trace)
			}
			page.Events = append(page.Events, js)
		}
		j.log.Unlock()

		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(page) //nolint:errcheck // best-effort write to scraper
	})
}
