// Command dkf-router fronts a sharded DSMS cluster. Sources connect to
// it exactly as they would to a dkf-server — same wire protocol, same
// dkf-source binary, zero changes — and the router forwards each stream
// to its owning shard (consistent-hash placement with virtual nodes),
// relays the shard's acks back, splits cross-shard aggregate queries
// into per-shard partials and merges the answers, and migrates live
// streams between shards on demand.
//
// Usage:
//
//	dkf-server -listen 127.0.0.1:7601 -shard-index 0 -query q1:sensor-a:linear:2.0 &
//	dkf-server -listen 127.0.0.1:7602 -shard-index 1 -query q2:sensor-b:linear:2.0 &
//	dkf-router -listen 127.0.0.1:7474 -admin 127.0.0.1:7475 \
//	    -shard 127.0.0.1:7601 -shard 127.0.0.1:7602 \
//	    -agg load:avg:linear:4.0:sensor-a,sensor-b
//
// Each -query flag is id:source:model:delta[:F], registered on the
// stream's owning shard. Each -agg flag is id:func:model:delta:src1,src2,...[:F]
// and becomes a cross-shard aggregate: every shard owning a member runs
// a partial at its slice of the Δ budget, and the router merges the
// partials — bit-identical to a single server evaluating the whole
// aggregate (see DESIGN.md §17).
//
// The -admin listener serves /metrics (per-shard forward counters and
// latency histograms, connection gauges), /ringz (the placement ring as
// JSON: epochs, pins, shard liveness), /healthz (the rolled-up cluster
// verdict), /clusterz (the federated fleet view as JSON — point
// each -shard-admin flag at the matching shard's admin address, in
// -shard order), /eventz (the topology event log), and /debug/pprof.
//
// With -trace the router records fwd_rx/fwd_tx/fwd_ack flight-recorder
// events for traced forwards — on its own per-route recorders; the
// forward itself is the source's payload verbatim, traced or not — and
// serves /tracez plus /tracez/stream/{id}, which splices the router's
// hop events into the owning shard's trail (fetched from its
// -shard-admin endpoint) for the full source→router→shard chain.
// Tracing also needs -trace on the shards and a traced source.
//
// With -udp the router also accepts the connectionless datagram
// transport and forwards those updates over the pooled shard
// connections. With -reconnect-every the router probes lost shards and
// resynchronises them (re-registers queries, replays unacked forwards
// from the shard's recovered ResumeSeq) when they come back.
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

	"streamkf/internal/dsms"
	"streamkf/internal/dsms/cluster"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
)

type stringsFlag []string

func (s *stringsFlag) String() string { return fmt.Sprint(*s) }

// Set appends one repeated flag value.
func (s *stringsFlag) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func parseQuery(s string) (stream.Query, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 4 && len(parts) != 5 {
		return stream.Query{}, fmt.Errorf("want id:source:model:delta[:F], got %q", s)
	}
	delta, err := strconv.ParseFloat(parts[3], 64)
	if err != nil {
		return stream.Query{}, fmt.Errorf("bad delta in %q: %v", s, err)
	}
	var f float64
	if len(parts) == 5 {
		if f, err = strconv.ParseFloat(parts[4], 64); err != nil {
			return stream.Query{}, fmt.Errorf("bad F in %q: %v", s, err)
		}
	}
	return stream.Query{ID: parts[0], SourceID: parts[1], Model: parts[2], Delta: delta, F: f}, nil
}

func parseAgg(s string) (dsms.AggregateQuery, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 5 && len(parts) != 6 {
		return dsms.AggregateQuery{}, fmt.Errorf("want id:func:model:delta:src1,src2,...[:F], got %q", s)
	}
	delta, err := strconv.ParseFloat(parts[3], 64)
	if err != nil {
		return dsms.AggregateQuery{}, fmt.Errorf("bad delta in %q: %v", s, err)
	}
	var f float64
	if len(parts) == 6 {
		if f, err = strconv.ParseFloat(parts[5], 64); err != nil {
			return dsms.AggregateQuery{}, fmt.Errorf("bad F in %q: %v", s, err)
		}
	}
	return dsms.AggregateQuery{
		ID: parts[0], Func: dsms.AggFunc(parts[1]), Model: parts[2],
		Delta: delta, SourceIDs: strings.Split(parts[4], ","), F: f,
	}, nil
}

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:7474", "source-facing address to listen on")
		admin       = flag.String("admin", "127.0.0.1:7475", "admin HTTP address for /metrics, /ringz, /healthz, /debug/pprof (empty disables)")
		udpListen   = flag.String("udp", "", "also accept the connectionless datagram transport on this address (empty disables)")
		logLevel    = flag.String("log-level", "info", "log level: debug|info|warn|error")
		vnodes      = flag.Int("vnodes", 0, "virtual nodes per shard on the placement ring (0 = 64)")
		maxFrame    = flag.Int("maxframe", 0, "max accepted wire frame size in bytes (0 = 1 MiB default)")
		beta        = flag.Float64("agg-suppress", 0, "cluster budget split β in [0,1): shards run partials at (1-β)Δ, the router re-suppresses within βΔ; 0 reproduces single-server answers exactly")
		reconnect   = flag.Duration("reconnect-every", 2*time.Second, "probe interval for lost shards (0 disables auto-reconnect)")
		doTrace     = flag.Bool("trace", false, "record each traced forward's hop (fwd_rx/fwd_tx/fwd_ack) on the route's own recorder and serve /tracez on the admin listener")
		traceRing   = flag.Int("trace-ring", 0, "per-route trace ring size (0 = default)")
		eventCap    = flag.Int("event-cap", 0, "topology event log capacity (0 = 256)")
		shards      stringsFlag
		shardAdmins stringsFlag
		queries     stringsFlag
		aggs        stringsFlag
	)
	flag.Var(&shards, "shard", "shard server address, repeatable; order defines shard indices")
	flag.Var(&shardAdmins, "shard-admin", "shard admin HTTP address, repeatable, in -shard order; feeds /clusterz and trail splicing")
	flag.Var(&queries, "query", "continuous query id:source:model:delta[:F] (repeatable)")
	flag.Var(&aggs, "agg", "cross-shard aggregate id:func:model:delta:src1,src2,...[:F] (repeatable)")
	flag.Parse()

	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dkf-router: %v\n", err)
		os.Exit(2)
	}
	logger := telemetry.NewLogger(os.Stderr, level)
	if len(shards) == 0 {
		logger.Error("at least one -shard is required")
		os.Exit(2)
	}

	if len(shardAdmins) > 0 && len(shardAdmins) != len(shards) {
		logger.Error("-shard-admin count must match -shard count", "shards", len(shards), "admins", len(shardAdmins))
		os.Exit(2)
	}

	router, err := cluster.NewRouter(*listen, shards, cluster.Options{
		VNodes:      *vnodes,
		MaxFrame:    *maxFrame,
		AggSuppress: *beta,
		Logger:      logger,
		Trace:       *doTrace,
		TraceRing:   *traceRing,
		ShardAdmins: shardAdmins,
		EventCap:    *eventCap,
	})
	if err != nil {
		logger.Error("router start failed", "err", err)
		os.Exit(1)
	}
	logger.Info("dkf-router listening", "addr", router.Addr(), "shards", len(shards), "vnodes", *vnodes)

	for _, s := range queries {
		q, err := parseQuery(s)
		if err != nil {
			logger.Error("bad -query", "err", err)
			os.Exit(2)
		}
		if err := router.RegisterQuery(q); err != nil {
			logger.Error("register query failed", "query", q.ID, "err", err)
			os.Exit(1)
		}
		logger.Info("query registered", "query", q.ID, "source", q.SourceID, "shard", router.Ring().Owner(q.SourceID))
	}
	for _, s := range aggs {
		q, err := parseAgg(s)
		if err != nil {
			logger.Error("bad -agg", "err", err)
			os.Exit(2)
		}
		if err := router.RegisterAggregate(q); err != nil {
			logger.Error("register aggregate failed", "query", q.ID, "err", err)
			os.Exit(1)
		}
		logger.Info("aggregate registered", "query", q.ID, "func", q.Func, "sources", len(q.SourceIDs))
	}

	var adminSrv *dsms.AdminServer
	if *admin != "" {
		adminSrv, err = cluster.ServeAdmin(router, *admin, logger)
		if err != nil {
			logger.Error("admin listen failed", "addr", *admin, "err", err)
			os.Exit(1)
		}
		logger.Info("admin listening", "addr", adminSrv.Addr())
	}

	if *udpListen != "" {
		go func() {
			if err := router.ServeUDP(*udpListen); err != nil {
				logger.Error("udp serve failed", "err", err)
			}
		}()
		logger.Info("datagram transport listening", "addr", *udpListen)
	}

	stopProbe := make(chan struct{})
	if *reconnect > 0 {
		go func() {
			t := time.NewTicker(*reconnect)
			defer t.Stop()
			for {
				select {
				case <-stopProbe:
					return
				case <-t.C:
					for _, idx := range router.DeadShards() {
						if err := router.ReconnectShard(idx); err != nil {
							logger.Debug("shard still down", "shard", idx, "err", err)
						} else {
							logger.Info("shard resynchronised", "shard", idx)
						}
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- router.Serve() }()
	select {
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String())
	case err := <-done:
		if err != nil {
			logger.Error("serve failed", "err", err)
		}
	}
	close(stopProbe)
	if adminSrv != nil {
		adminSrv.Close()
	}
	router.Close()
	logger.Info("dkf-router stopped")
}
