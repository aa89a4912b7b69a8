// Command dkf-server runs the central DSMS node over TCP: it registers
// the continuous queries given on the command line, listens for source
// agents (see cmd/dkf-source) and answers query clients. A second HTTP
// listener (-admin) exposes the observability surface: /metrics
// (Prometheus text), /healthz, /streamz (per-stream JSON incl. filter
// health), /tracez (with -trace), and /debug/pprof.
//
// Usage:
//
//	dkf-server -listen 127.0.0.1:7474 -admin 127.0.0.1:7475 \
//	    -query q1:sensor-a:linear:2.0 \
//	    -query q2:sensor-b:constant:5.0:1e-7
//
// Each -query flag is id:source:model:delta[:F]. Models come from the
// default catalog: constant, linear, acceleration, jerk, constant2d,
// linear2d.
//
// With -udp the server additionally accepts the connectionless datagram
// transport on that address, feeding the shard-per-core ingest engine
// (-shards, -ring tune it) — the 100k-source fan-in path. Sources pick
// it with dkf-source -transport udp.
//
// With -data-dir the server is durable: every registration and update
// is written to a write-ahead log and periodically checkpointed, so a
// restart with the same -data-dir recovers the exact filter state and
// reconnecting sources resume without re-bootstrapping. -fsync picks
// the durability/latency trade-off (always | interval | off).
//
// With -trace every stream gets a flight recorder: per-update decision
// trails and the divergence audit become queryable at /tracez and
// /tracez/stream/{id}, and tracing sources (dkf-source -trace) ship
// their suppression evidence alongside each update.
//
// With -shard-index the server runs as one shard of a dkf-router
// cluster: it accepts forwarded updates, answers partial aggregates,
// and reports the cluster block on /streamz. See cmd/dkf-router.
//
// With -selfmon the server watches itself: every -history-every tick ~10
// health signals, each a windowed rate or quantile of one metric family,
// run through the same Kalman filters the data path uses, and /healthz
// becomes a real probe (ok|degraded|unhealthy, 503 when unhealthy, JSON
// reasons with ?verbose=1). /statusz serves the signals and recent
// findings as JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"streamkf/internal/cql"
	"streamkf/internal/dsms"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
	"streamkf/internal/trace"
	"streamkf/internal/wal"
)

type stringsFlag []string

func (s *stringsFlag) String() string { return fmt.Sprint(*s) }

// Set appends one repeated flag value.
func (s *stringsFlag) Set(v string) error {
	*s = append(*s, v)
	return nil
}

type queryFlags []stream.Query

func (q *queryFlags) String() string { return fmt.Sprint(*q) }

func (q *queryFlags) Set(s string) error {
	parts := strings.Split(s, ":")
	if len(parts) != 4 && len(parts) != 5 {
		return fmt.Errorf("want id:source:model:delta[:F], got %q", s)
	}
	delta, err := strconv.ParseFloat(parts[3], 64)
	if err != nil {
		return fmt.Errorf("bad delta in %q: %v", s, err)
	}
	var f float64
	if len(parts) == 5 {
		f, err = strconv.ParseFloat(parts[4], 64)
		if err != nil {
			return fmt.Errorf("bad F in %q: %v", s, err)
		}
	}
	*q = append(*q, stream.Query{ID: parts[0], SourceID: parts[1], Model: parts[2], Delta: delta, F: f})
	return nil
}

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7474", "address to listen on")
		admin      = flag.String("admin", "127.0.0.1:7475", "admin HTTP address for /metrics, /healthz, /streamz, /debug/pprof (empty disables)")
		logLevel   = flag.String("log-level", "info", "log level: debug|info|warn|error")
		dt         = flag.Float64("dt", 1.0, "sampling interval assumed by the model catalog")
		stats      = flag.Duration("stats", 10*time.Second, "stats reporting interval (0 disables)")
		maxFrame   = flag.Int("maxframe", 0, "max accepted wire frame size in bytes (0 = 1 MiB default)")
		udpListen  = flag.String("udp", "", "also accept the connectionless datagram transport on this address (empty disables)")
		shards     = flag.Int("shards", 0, "ingest engine shard count for -udp; 0 = GOMAXPROCS")
		ring       = flag.Int("ring", 0, "per-shard SPSC ring capacity for -udp (0 = default)")
		dataDir    = flag.String("data-dir", "", "directory for the write-ahead log and checkpoints (empty = non-durable)")
		fsync      = flag.String("fsync", "interval", "WAL fsync policy: always|interval|off")
		fsyncEvery = flag.Duration("fsync-interval", 0, "flush period for -fsync interval (0 = 50ms default)")
		ckptEvery  = flag.Int("checkpoint-every", 10000, "checkpoint after this many logged updates (0 disables automatic checkpoints)")
		traceOn    = flag.Bool("trace", false, "record per-update decision trails, served at /tracez")
		traceRing  = flag.Int("trace-ring", 0, "flight-recorder ring size per stream (0 = 256 default)")
		traceSamp  = flag.Int("trace-sample", 0, "record the routine trail for 1-in-N updates (0/1 = all; decisions are always kept)")
		selfmon    = flag.Bool("selfmon", false, "self-monitoring: Kalman-filtered health verdicts at /healthz, signals and findings at /statusz")
		shardIndex = flag.Int("shard-index", -1, "shard index when serving behind dkf-router (-1 = standalone); adds the cluster block to /streamz")
		histEvery  = flag.Duration("history-every", time.Second, "signal sampling cadence for -selfmon")
		queries    queryFlags
		statements stringsFlag
	)
	flag.Var(&queries, "query", "continuous query id:source:model:delta[:F] (repeatable)")
	flag.Var(&statements, "cql", `CQL statement, e.g. "SELECT AVG FROM z1, z2 MODEL linear WITHIN 50 AS load" (repeatable)`)
	flag.Parse()

	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dkf-server: %v\n", err)
		os.Exit(2)
	}
	logger := telemetry.NewLogger(os.Stderr, level)

	// A shard behind a dkf-router may start with no local queries: the
	// router registers them remotely over the cluster protocol.
	if len(queries) == 0 && len(statements) == 0 && *shardIndex < 0 {
		logger.Error("at least one -query or -cql is required (unless -shard-index is set)")
		os.Exit(2)
	}

	catalog := dsms.DefaultCatalog(*dt)
	var server *dsms.Server
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			logger.Error("bad -fsync", "err", err)
			os.Exit(2)
		}
		server, err = dsms.Open(catalog, *dataDir, dsms.DurabilityOptions{
			Sync:            policy,
			SyncEvery:       *fsyncEvery,
			CheckpointEvery: *ckptEvery,
		})
		if err != nil {
			logger.Error("recovery failed", "data_dir", *dataDir, "err", err)
			os.Exit(1)
		}
		logger.Info("durable server open", "data_dir", *dataDir, "fsync", policy.String())
	} else {
		server = dsms.NewServer(catalog)
	}
	if *traceOn {
		server.EnableTracing(trace.Options{RingSize: *traceRing, Sample: *traceSamp})
		logger.Info("tracing enabled", "ring", *traceRing, "sample", *traceSamp)
	}
	if *selfmon {
		mon, err := server.EnableSelfMon(dsms.SelfMonOptions{Every: *histEvery})
		if err != nil {
			logger.Error("self-monitoring failed", "err", err)
			os.Exit(2)
		}
		mon.Start()
		logger.Info("self-monitoring enabled",
			"every", *histEvery,
			"signals", len(mon.Signals()))
	}
	if *shardIndex >= 0 {
		server.SetShardInfo(*shardIndex, 0)
		logger.Info("cluster shard mode", "shard_index", *shardIndex)
	}
	for _, q := range queries {
		if server.HasQuery(q.ID) {
			// Recovered from the checkpoint/WAL: re-registering would be
			// rejected as a duplicate, and its config is already in force.
			logger.Info("query recovered", "query", q.ID, "source", q.SourceID)
			continue
		}
		if err := server.Register(q); err != nil {
			logger.Error("register query failed", "query", q.ID, "err", err)
			os.Exit(2)
		}
		logger.Info("query registered", "query", q.ID, "source", q.SourceID, "model", q.Model, "delta", q.Delta, "F", q.F)
	}
	for _, stmt := range statements {
		name, err := cql.Install(server, stmt)
		if err != nil {
			logger.Error("CQL install failed", "statement", stmt, "err", err)
			os.Exit(2)
		}
		logger.Info("CQL query installed", "query", name)
	}

	ts, err := dsms.NewTCPServerOptions(server, *listen, dsms.ServerOptions{MaxFrame: *maxFrame})
	if err != nil {
		logger.Error("listen failed", "addr", *listen, "err", err)
		os.Exit(1)
	}
	logger.Info("dkf-server listening", "addr", ts.Addr(), "models", strings.Join(catalog.Names(), ","))

	var us *dsms.UDPServer
	if *udpListen != "" {
		us, err = dsms.NewUDPServer(server, *udpListen, dsms.UDPServerOptions{Engine: dsms.EngineOptions{Shards: *shards, RingSize: *ring}})
		if err != nil {
			logger.Error("udp listen failed", "addr", *udpListen, "err", err)
			os.Exit(1)
		}
		go func() {
			if err := us.Serve(); err != nil {
				logger.Error("udp serve failed", "err", err)
			}
		}()
		logger.Info("datagram transport listening", "addr", us.Addr(), "shards", server.Engine().Shards())
	}

	var adminSrv *dsms.AdminServer
	if *admin != "" {
		adminSrv, err = dsms.ServeAdmin(server, *admin, logger)
		if err != nil {
			logger.Error("admin listen failed", "addr", *admin, "err", err)
			os.Exit(1)
		}
	}

	statsStop := make(chan struct{})
	if *stats > 0 {
		go func() {
			t := time.NewTicker(*stats)
			defer t.Stop()
			for {
				select {
				case <-statsStop:
					return
				case <-t.C:
					for _, st := range server.Stats() {
						logger.Info("source stats",
							"source", st.SourceID, "queries", st.Queries,
							"updates", st.Updates, "suppressed", st.Suppressed,
							"suppression_pct", fmt.Sprintf("%.1f", st.SuppressionPct),
							"bytes", st.Bytes, "seq", st.Seq,
							"nis", st.NIS, "healthy", st.Healthy)
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- ts.Serve() }()
	shutdown := func() {
		close(statsStop)
		if us != nil {
			if err := us.Close(); err != nil {
				logger.Warn("udp close", "err", err)
			}
			// Drain in-flight ring entries into the filters (and the WAL,
			// when durable) before the final checkpoint below.
			server.Engine().Close()
		}
		if adminSrv != nil {
			if err := adminSrv.Close(); err != nil {
				logger.Warn("admin close", "err", err)
			}
		}
		// Final checkpoint + WAL close; a no-op without -data-dir.
		if err := server.Close(); err != nil {
			logger.Error("durable close", "err", err)
		}
	}
	select {
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String())
		ts.Close()
		<-done
		shutdown()
	case err := <-done:
		shutdown()
		if err != nil {
			logger.Error("serve failed", "err", err)
			os.Exit(1)
		}
	}
	logger.Info("dkf-server stopped")
}
