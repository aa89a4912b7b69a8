// Command dkf-source runs a remote source agent: it connects to a
// dkf-server, receives its filter installation, and streams one of the
// synthetic datasets (or a CSV file) through the Dual Kalman Filter
// suppression protocol.
//
// Usage:
//
//	dkf-source -server 127.0.0.1:7474 -source sensor-a -dataset movingobject -rate 100ms
//	dkf-source -server 127.0.0.1:7474 -source sensor-b -csv readings.csv
//	dkf-source -server 127.0.0.1:7476 -source sensor-c -transport udp -dataset powerload
//
// With -transport udp the agent speaks the connectionless datagram
// protocol (the server must run with -udp): no acks, no resends, so
// -window does not apply — and a lost update is lost: answers can sit
// outside δ until later updates pull the server filter back (DESIGN §14).
//
// With -trace the agent keeps a local flight recorder of every
// suppression decision and — when the server also runs -trace — ships
// the decision evidence as a trailer of each update so the server's
// /tracez can show the full causal chain.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms"
	"streamkf/internal/gen"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
	"streamkf/internal/trace"
)

// sourceAgent is what the streaming loop needs from either transport's
// agent: TCP's RemoteAgent and UDP's UDPAgent both satisfy it.
type sourceAgent interface {
	Offer(r stream.Reading) (sent bool, err error)
	Drain() error
	Stats() core.SourceStats
	Tracer() *trace.Recorder
	TraceNegotiated() bool
	Close() error
}

func main() {
	var (
		server    = flag.String("server", "127.0.0.1:7474", "dkf-server address")
		source    = flag.String("source", "", "source object id (must match a registered query)")
		dataset   = flag.String("dataset", "", "movingobject | powerload | httptraffic")
		csvPath   = flag.String("csv", "", "stream readings from this CSV instead of a generator")
		rate      = flag.Duration("rate", 0, "inter-reading delay (0 = as fast as possible)")
		dt        = flag.Float64("dt", 1.0, "sampling interval assumed by the model catalog")
		seed      = flag.Int64("seed", 0, "generator seed override")
		n         = flag.Int("n", 0, "generator length override")
		window    = flag.Int("window", dsms.DefaultWindow, "max unacked updates in flight (the default fills a routed path and costs ~32 B an update in flight; 1 = synchronous ack per update; tcp only)")
		transport = flag.String("transport", "tcp", "transport protocol: tcp | udp")
		logLevel  = flag.String("log-level", "info", "log level: debug|info|warn|error")
		traceOn   = flag.Bool("trace", false, "record decision trails locally and offer them to the server")
		traceRing = flag.Int("trace-ring", 0, "flight-recorder ring size (0 = 256 default)")
		traceSamp = flag.Int("trace-sample", 0, "record the routine trail for 1-in-N readings (0/1 = all; decisions are always kept)")
	)
	flag.Parse()

	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dkf-source: %v\n", err)
		os.Exit(2)
	}
	logger := telemetry.NewLogger(os.Stderr, level)

	if *source == "" {
		logger.Error("-source is required")
		os.Exit(2)
	}
	data, err := loadData(*dataset, *csvPath, *n, *seed)
	if err != nil {
		logger.Error("load data failed", "err", err)
		os.Exit(2)
	}

	var agent sourceAgent
	switch *transport {
	case "tcp":
		agent, err = dsms.DialSourceOptions(*server, *source, dsms.DefaultCatalog(*dt), dsms.DialOptions{
			Window:      *window,
			Trace:       *traceOn,
			TraceRing:   *traceRing,
			TraceSample: *traceSamp,
		})
	case "udp":
		agent, err = dsms.DialSourceUDP(*server, *source, dsms.DefaultCatalog(*dt), dsms.UDPDialOptions{
			Trace:       *traceOn,
			TraceRing:   *traceRing,
			TraceSample: *traceSamp,
		})
	default:
		logger.Error("bad -transport; want tcp or udp", "transport", *transport)
		os.Exit(2)
	}
	if err != nil {
		logger.Error("dial failed", "server", *server, "transport", *transport, "err", err)
		os.Exit(1)
	}
	defer agent.Close()
	logger.Info("connected", "source", *source, "server", *server, "transport", *transport, "readings", len(data), "window", *window)
	if *traceOn {
		logger.Info("tracing enabled", "wire_evidence", agent.TraceNegotiated())
	}

	start := time.Now()
	for _, r := range data {
		if _, err := agent.Offer(r); err != nil {
			logger.Error("offer failed", "seq", r.Seq, "err", err)
			os.Exit(1)
		}
		if *rate > 0 {
			time.Sleep(*rate)
		}
	}
	// Wait until the server has acknowledged every pipelined update
	// before reporting: the run is not done while updates are in flight.
	if err := agent.Drain(); err != nil {
		logger.Error("drain failed", "err", err)
		os.Exit(1)
	}
	st := agent.Stats()
	logger.Info("stream done",
		"elapsed", time.Since(start).Round(time.Millisecond).String(),
		"readings", st.Readings, "updates", st.Updates,
		"sent_pct", fmt.Sprintf("%.2f", 100*float64(st.Updates)/float64(st.Readings)),
		"suppressed", st.Suppressed, "bytes", st.BytesSent)
	if *traceOn {
		printTrail(agent, 8)
	}
}

// printTrail dumps the tail of the local flight recorder to stderr.
// Suppression decisions never cross the wire — the suppressed half of
// the trail exists only here, at the source.
func printTrail(agent sourceAgent, n int) {
	events := agent.Tracer().Events()
	if len(events) > n {
		events = events[len(events)-n:]
	}
	fmt.Fprintf(os.Stderr, "decision trail (last %d events):\n", len(events))
	for _, ev := range events {
		e := ev.View()
		line := fmt.Sprintf("  trace=%d seq=%d %s", e.TraceID, e.Seq, e.Kind)
		if e.Decision != "" {
			line += " " + e.Decision
		}
		switch e.Kind {
		case "smooth":
			line += fmt.Sprintf(" raw=%.4g smoothed=%.4g", e.Raw, e.Value)
		case "predict", "decision":
			line += fmt.Sprintf(" value=%.4g pred=%.4g residual=%.4g δ=%.4g", e.Value, e.Pred, e.Residual, e.Delta)
			if e.NIS != 0 {
				line += fmt.Sprintf(" nis=%.4g", e.NIS)
			}
		case "wire_tx":
			line += fmt.Sprintf(" bytes=%d", e.Aux)
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

func loadData(dataset, csvPath string, n int, seed int64) ([]stream.Reading, error) {
	if csvPath != "" {
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return gen.ReadCSV(f)
	}
	switch dataset {
	case "movingobject":
		cfg := gen.DefaultMovingObject()
		if n > 0 {
			cfg.N = n
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		return gen.MovingObject(cfg), nil
	case "powerload":
		cfg := gen.DefaultPowerLoad()
		if n > 0 {
			cfg.N = n
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		return gen.PowerLoad(cfg), nil
	case "httptraffic":
		cfg := gen.DefaultHTTPTraffic()
		if n > 0 {
			cfg.N = n
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		return gen.HTTPTraffic(cfg), nil
	default:
		return nil, fmt.Errorf("need -dataset (movingobject | powerload | httptraffic) or -csv")
	}
}
