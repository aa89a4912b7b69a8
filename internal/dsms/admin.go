package dsms

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"time"

	"streamkf/internal/telemetry"
	"streamkf/internal/trace"
)

// The admin kit: what the shard server's and the router's admin
// endpoints share — the listener, the no-store wrapper, the pprof
// mounts, the JSON writer, /tracez parameter parsing and the last-N ring
// behind every bounded log. ServeAdmin here and cluster.ServeAdmin each
// mount their own handlers on it. Every document is data: JSON, or
// Prometheus text at /metrics.

// AdminServer is an observability endpoint: a small HTTP listener,
// separate from the wire-protocol port. Scrapes never stop the data
// path: every handler reads live atomics or takes only the same short
// per-source locks queries do. Every response carries Cache-Control:
// no-store — all of these documents are live state, and a cached health
// verdict is worse than none.
type AdminServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// StartAdmin binds addr (e.g. "127.0.0.1:0"), lets mount register the
// caller's handlers beside /debug/pprof/*, and serves until Close. It
// returns once the listener is bound; the bound address is at Addr().
// A nil logger discards request-path logs.
func StartAdmin(addr string, logger *slog.Logger, mount func(mux *http.ServeMux)) (*AdminServer, error) {
	if logger == nil {
		logger = telemetry.NopLogger()
	}
	mux := http.NewServeMux()
	mount(mux)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	noStore := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		mux.ServeHTTP(w, req)
	})
	a := &AdminServer{
		ln:   ln,
		srv:  &http.Server{Handler: noStore, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(a.done)
		if err := a.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Error("admin server exited", "err", err)
		}
	}()
	logger.Info("admin endpoint listening", "addr", a.Addr())
	return a, nil
}

// Addr returns the bound listener address.
func (a *AdminServer) Addr() string { return a.ln.Addr().String() }

// Close stops the listener, drops open admin connections, and waits for
// the serve goroutine to exit — no goroutine survives Close.
func (a *AdminServer) Close() error {
	err := a.srv.Close()
	<-a.done
	return err
}

// WriteJSON writes v as an indented JSON document with the given
// status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteHealthz serves a health verdict: 200 for ok and degraded (the
// node still answers), 503 for unhealthy. Plain text `<status>\n` by
// default; `?verbose=1` returns doc, the full JSON document with
// machine-readable reasons.
func WriteHealthz(w http.ResponseWriter, req *http.Request, status string, doc any) {
	code := http.StatusOK
	if status == Verdicts[verdictUnhealthy] {
		code = http.StatusServiceUnavailable
	}
	if req.URL.Query().Get("verbose") != "" {
		WriteJSON(w, code, doc)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	fmt.Fprintf(w, "%s\n", status)
}

// LastN keeps the newest values put into it, up to the capacity it was
// made with: the finding log and the router's topology events. Not safe
// for concurrent use.
type LastN[T any] struct {
	buf []T
	n   uint64 // values ever put; the next one lands in buf[n % cap]
}

// NewLastN returns an empty ring that retains capacity values.
func NewLastN[T any](capacity int) *LastN[T] {
	return &LastN[T]{buf: make([]T, 0, capacity)}
}

// Put adds v, overwriting the oldest value once full. Allocates nothing.
func (r *LastN[T]) Put(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.n%uint64(len(r.buf))] = v
	}
	r.n++
}

// Total is how many values were ever put; more than are retained means
// the oldest were overwritten.
func (r *LastN[T]) Total() uint64 { return r.n }

// Last copies out the newest limit values (every retained one when limit
// is not positive or past them), newest first or oldest first.
func (r *LastN[T]) Last(limit int, newestFirst bool) []T {
	if limit <= 0 || limit > len(r.buf) {
		limit = len(r.buf)
	}
	out := make([]T, limit)
	for i := range out {
		v := r.buf[(r.n-1-uint64(i))%uint64(len(r.buf))] // the i-th newest
		if newestFirst {
			out[i] = v
		} else {
			out[limit-1-i] = v
		}
	}
	return out
}

// TracezResponse is the /tracez document, the same shape on the shard
// server and the router so one scraper reads both.
type TracezResponse struct {
	Enabled bool         `json:"enabled"`
	Count   int          `json:"count"`
	Events  []TraceEntry `json:"events"`
}

// TracezHandler serves recent trace events, newest first. Query
// parameters: source (stream id), kind (event kind name), decision
// (decision name), limit (default 100). recent is Server.TraceRecent or
// its router twin.
func TracezHandler(enabled func() bool, recent func(limit int, source string, kind trace.Kind, dec trace.Decision) []TraceEntry) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		limit := 100
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				http.Error(w, "bad limit: "+v, http.StatusBadRequest)
				return
			}
			limit = n
		}
		var kind trace.Kind
		var dec trace.Decision
		var err error
		if v := q.Get("kind"); v != "" {
			kind, err = trace.ParseKind(v)
		}
		if v := q.Get("decision"); v != "" && err == nil {
			dec, err = trace.ParseDecision(v)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		evs := recent(limit, q.Get("source"), kind, dec)
		WriteJSON(w, http.StatusOK, TracezResponse{Enabled: enabled(), Count: len(evs), Events: evs})
	}
}

// TracezStreamHandler serves one stream's decision trail, looked up by
// the source id or query id in the path. The id is one path segment, so
// an id containing "/" arrives escaped as %2F (url.PathEscape).
func TracezStreamHandler[T any](lookup func(id string) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		esc := strings.TrimPrefix(req.URL.EscapedPath(), "/tracez/stream/")
		id, err := url.PathUnescape(esc)
		if id == "" || err != nil || strings.Contains(esc, "/") {
			http.Error(w, "usage: /tracez/stream/{source-or-query-id}", http.StatusBadRequest)
			return
		}
		st, err := lookup(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		WriteJSON(w, http.StatusOK, st)
	}
}

// MetricsHandler serves reg in Prometheus text exposition format.
func MetricsHandler(reg *telemetry.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	}
}

// ServeAdmin starts the admin endpoint of a DSMS server:
//
//	/metrics            Prometheus text exposition of the telemetry registry
//	/healthz            health probe: ok|degraded|unhealthy (?verbose=1 for JSON reasons)
//	/statusz            the verdict, every self-signal's state and the retained findings
//	/streamz            JSON status: latency summaries, WAL state, per-stream records
//	/tracez             recent trace events across streams (?source=&kind=&decision=&limit=)
//	/tracez/stream/{id} one stream's decision trail and divergence audit
//	/debug/pprof/*      the standard Go profiling endpoints
func ServeAdmin(s *Server, addr string, logger *slog.Logger) (*AdminServer, error) {
	return StartAdmin(addr, logger, func(mux *http.ServeMux) {
		mux.HandleFunc("/metrics", MetricsHandler(s.Telemetry()))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
			h := s.Health()
			WriteHealthz(w, req, h.Status, h)
		})
		mux.HandleFunc("/statusz", StatuszHandler(s))
		mux.HandleFunc("/streamz", func(w http.ResponseWriter, req *http.Request) {
			WriteJSON(w, http.StatusOK, s.Streamz())
		})
		mux.HandleFunc("/tracez", TracezHandler(s.TraceEnabled, s.TraceRecent))
		mux.HandleFunc("/tracez/stream/", TracezStreamHandler(s.TraceStream))
	})
}
