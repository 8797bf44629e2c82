package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// NewHandler builds the introspection mux the -http flag serves over one
// run:
//
//	/metrics               Prometheus text exposition of the run's registry
//	/progress              JSON snapshot of the live span stack + counter deltas
//	/timeline              metric timeline rings (JSON; ?series=&since=)
//	/critpath              span-graph attribution + top-k critical chains (?k=)
//	/debug/flightrecorder  JSONL dump of the run's flight-recorder ring
//	/debug/pprof/*         the standard pprof handlers
//
// Any argument may be nil, as may the run's registry and flight recorder;
// the corresponding endpoint then reports an empty state rather than
// disappearing, so scrapers see a stable surface.
func NewHandler(run *Run, tl *Timeline, graph *GraphSink) http.Handler {
	prog := &progress{run: run}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "sirl introspection server")
		fmt.Fprintln(w, "  /metrics               Prometheus counters, latency histograms, gauges")
		fmt.Fprintln(w, "  /progress              live span stack and counter deltas (JSON)")
		fmt.Fprintln(w, "  /timeline              metric timeline rings (JSON; ?series=a,b&since=unix_ms)")
		fmt.Fprintln(w, "  /critpath              wall-clock attribution and top-k critical chains (JSON; ?k=10)")
		fmt.Fprintln(w, "  /debug/flightrecorder  flight-recorder ring dump (JSONL)")
		fmt.Fprintln(w, "  /debug/pprof/          CPU, heap, goroutine profiles")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metricsContentType)
		var rep Report
		if reg := run.Registry(); reg != nil {
			rep = reg.Snapshot()
		}
		rep.WritePrometheus(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(prog.snapshot()) //nolint:errcheck // best-effort HTTP response
	})
	mux.HandleFunc("/timeline", func(w http.ResponseWriter, r *http.Request) {
		var filter map[string]bool
		if s := r.URL.Query().Get("series"); s != "" {
			filter = make(map[string]bool)
			for _, name := range strings.Split(s, ",") {
				if name = strings.TrimSpace(name); name != "" {
					filter[name] = true
				}
			}
		}
		var since int64
		if s := r.URL.Query().Get("since"); s != "" {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				http.Error(w, "since: want Unix milliseconds", http.StatusBadRequest)
				return
			}
			since = v
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(tl.Dump(filter, since)) //nolint:errcheck // best-effort HTTP response; nil-safe
	})
	mux.HandleFunc("/critpath", func(w http.ResponseWriter, r *http.Request) {
		k := 10
		if s := r.URL.Query().Get("k"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "k: want a non-negative integer", http.StatusBadRequest)
				return
			}
			k = v
		}
		// Mid-run the graph covers finished spans only: a round whose
		// ancestors are still open surfaces with a truncated path. That is
		// the useful live view — the rounds themselves are complete.
		g := graph.Graph()
		resp := CritPathResponse{
			Spans:   g.Len(),
			Dropped: g.Dropped,
			Attrib:  Attribute(g),
			Chains:  g.CriticalChains(k),
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp) //nolint:errcheck // best-effort HTTP response
	})
	mux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		run.Flight().WriteJSONL(w) //nolint:errcheck // best-effort HTTP response; nil-safe
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// CritPathResponse is the JSON shape /critpath serves: the point-in-time
// attribution table over the finished spans plus the top-k critical
// chains, with the graph's size and drop count for trust calibration.
type CritPathResponse struct {
	Spans   int           `json:"spans"`
	Dropped int64         `json:"dropped_spans,omitempty"`
	Attrib  *AttribReport `json:"attrib"`
	Chains  []CritChain   `json:"chains"`
}

// Server is a running introspection server.
type Server struct {
	l   net.Listener
	srv *http.Server
}

// StartServer listens on addr (e.g. ":6060", "localhost:0") and serves the
// introspection handler in a background goroutine until Close.
func StartServer(addr string, run *Run, tl *Timeline, graph *GraphSink) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{l: l, srv: &http.Server{Handler: NewHandler(run, tl, graph)}}
	go s.srv.Serve(l) //nolint:errcheck // always returns ErrServerClosed after Close
	return s, nil
}

// Addr returns the bound address, useful when addr requested port 0.
func (s *Server) Addr() string { return s.l.Addr().String() }

// Close stops the server immediately.
func (s *Server) Close() error { return s.srv.Close() }
