// Package streamkf is an adaptive stream resource management library
// built on Kalman filters, reproducing the SIGMOD 2004 paper "Adaptive
// Stream Resource Management Using Kalman Filters" (Jain, Chang, Wang).
//
// The core idea is the Dual Kalman Filter (DKF): for every continuous
// query with a precision constraint δ the system installs a Kalman filter
// at the central server and a byte-identical mirror at the remote source.
// Both predict the stream; the source transmits a reading only when the
// server's (mirrored) prediction would miss it by more than δ. The server
// thus caches a predictive procedure instead of a stale value, cutting
// communication by the stream's predictability.
//
// # Quick start
//
//	m := streamkf.LinearModel(1, 1.0, 0.05, 0.05)     // [value, rate] model
//	sess, err := streamkf.NewSession(streamkf.Config{
//		SourceID: "sensor-1",
//		Model:    m,
//		Delta:    2.0, // answers stay within ±2 of the truth
//	})
//	if err != nil { ... }
//	for _, r := range readings {
//		estimate, err := sess.Step(r) // what the server would answer now
//		...
//	}
//	fmt.Println(sess.Metrics()) // % updates sent, average error, bytes
//
// # Package layout
//
// This root package re-exports the stable public surface. The
// implementation lives in internal packages: mat (dense matrices), kalman
// (the filter, EKF and IMM), model (stream models), core
// (the DKF protocol), baseline (comparison schemes), gen (workloads), dsms
// (the end-to-end query server with TCP/UDP transports and the
// shard-per-core ingest engine), cql (the query language), adapt (online
// model switching), synopsis (error-bounded stream storage), netsim
// (sensor energy accounting), and experiments (the paper's evaluation).
package streamkf

import (
	"streamkf/internal/adapt"
	"streamkf/internal/baseline"
	"streamkf/internal/core"
	"streamkf/internal/cql"
	"streamkf/internal/dsms"
	"streamkf/internal/dsms/cluster"
	"streamkf/internal/gen"
	"streamkf/internal/kalman"
	"streamkf/internal/mat"
	"streamkf/internal/model"
	"streamkf/internal/netsim"
	"streamkf/internal/stream"
	"streamkf/internal/synopsis"
)

// Stream abstractions.
type (
	// Reading is one timestamped sensor observation.
	Reading = stream.Reading
	// Source yields readings in sequence order.
	Source = stream.Source
	// SliceSource adapts an in-memory dataset to Source.
	SliceSource = stream.SliceSource
	// Query is a continuous query with a precision constraint.
	Query = stream.Query
)

// NewSliceSource wraps readings as a Source.
func NewSliceSource(readings []Reading) *SliceSource { return stream.NewSliceSource(readings) }

// FromValues builds a single-attribute dataset sampled at interval dt.
func FromValues(vals []float64, dt float64) []Reading { return stream.FromValues(vals, dt) }

// Matrix and filter layer.
type (
	// Matrix is a dense row-major float64 matrix.
	Matrix = mat.Matrix
	// Filter is the discrete Kalman filter (Eqs. 3–12 of the paper).
	Filter = kalman.Filter
	// FilterConfig configures a Filter directly; most callers should use
	// a Model instead.
	FilterConfig = kalman.Config
	// EKF is the extended Kalman filter for non-linear models.
	EKF = kalman.EKF
	// EKFConfig configures an EKF.
	EKFConfig = kalman.EKFConfig
	// IMM is the Interacting Multiple Model estimator: a Bayesian
	// mixture over a bank of dynamics hypotheses.
	IMM = kalman.IMM
	// IMMConfig configures an IMM estimator.
	IMMConfig = kalman.IMMConfig
)

// NewIMM constructs an Interacting Multiple Model estimator.
func NewIMM(cfg IMMConfig) (*IMM, error) { return kalman.NewIMM(cfg) }

// NewMatrix returns a zeroed r x c matrix.
func NewMatrix(r, c int) *Matrix { return mat.New(r, c) }

// MatrixFromRows builds a matrix from rows.
func MatrixFromRows(rows [][]float64) *Matrix { return mat.FromRows(rows) }

// NewFilter constructs a Kalman filter from an explicit configuration.
func NewFilter(cfg FilterConfig) (*Filter, error) { return kalman.New(cfg) }

// NewEKF constructs an extended Kalman filter.
func NewEKF(cfg EKFConfig) (*EKF, error) { return kalman.NewEKF(cfg) }

// Model is a stream model: transition, measurement, noise and bootstrap.
type Model = model.Model

// NonlinearModel is a non-linear stream model for the EKF-based DKF.
type NonlinearModel = model.Nonlinear

// PendulumModel returns the reference non-linear model: a damped
// pendulum measuring the angle.
func PendulumModel(dt, gOverL, damping, q, r float64) NonlinearModel {
	return model.Pendulum(dt, gOverL, damping, q, r)
}

// ConstantModel returns the paper's constant model (Eq. 15) over axes
// measured attributes with diagonal process/measurement noise q and r.
func ConstantModel(axes int, q, r float64) Model { return model.Constant(axes, q, r) }

// LinearModel returns the constant-velocity model of §4.1 (Eq. 14).
func LinearModel(axes int, dt, q, r float64) Model { return model.Linear(axes, dt, q, r) }

// AccelerationModel returns a constant-acceleration model.
func AccelerationModel(axes int, dt, q, r float64) Model { return model.Acceleration(axes, dt, q, r) }

// JerkModel returns the third-order [P, Ṗ, P̈, P⃛] model of §4.1.
func JerkModel(axes int, dt, q, r float64) Model { return model.Jerk(axes, dt, q, r) }

// SinusoidalModel returns the periodic model of §4.2 (Eq. 17).
func SinusoidalModel(omega, theta, gamma, q, r float64) Model {
	return model.Sinusoidal(omega, theta, gamma, q, r)
}

// SmoothingModel returns the one-state smoother of §4.3 whose process
// noise is the smoothing factor F.
func SmoothingModel(f, r float64) Model { return model.Smoothing(f, r) }

// The DKF protocol (the paper's primary contribution).
type (
	// Config assembles a DKF deployment for one source/query pair.
	Config = core.Config
	// Session couples a source and server node in process.
	Session = core.Session
	// SourceNode is the remote-source side: mirror filter and
	// suppression decision. The update and the estimate its Process
	// returns are the node's own scratch, valid until the next Process:
	// copy them to keep them.
	SourceNode = core.SourceNode
	// ServerNode is the server side: the predicting filter KFs.
	ServerNode = core.ServerNode
	// Update is the wire message for a transmitted reading.
	Update = core.Update
	// Metrics aggregates a run: % updates, average error, bytes.
	Metrics = core.Metrics
	// Transport carries updates from source to server.
	Transport = core.Transport
	// TransportFunc adapts a function to Transport.
	TransportFunc = core.TransportFunc
	// AdaptiveSampler adjusts the sampling stride from the innovation
	// sequence.
	AdaptiveSampler = core.AdaptiveSampler
	// SampledSession is a DKF pair whose source skips sensing entirely
	// when the model predicts reliably.
	SampledSession = core.SampledSession
	// SampledMetrics extends Metrics with sensing duty-cycle counters.
	SampledMetrics = core.SampledMetrics
)

// NewSession builds a matched source/server DKF pair connected in
// process.
func NewSession(cfg Config) (*Session, error) { return core.NewSession(cfg) }

// NewSourceNode constructs just the source side (for custom transports).
func NewSourceNode(cfg Config) (*SourceNode, error) { return core.NewSourceNode(cfg) }

// NewServerNode constructs just the server side.
func NewServerNode(cfg Config) (*ServerNode, error) { return core.NewServerNode(cfg) }

// NewAdaptiveSampler returns a sampler for precision width delta with
// EWMA factor alpha and the given maximum stride.
func NewAdaptiveSampler(delta, alpha float64, maxStride int) (*AdaptiveSampler, error) {
	return core.NewAdaptiveSampler(delta, alpha, maxStride)
}

// NewSampledSession builds a DKF pair driven by an adaptive sampler:
// the source sleeps through readings while its mirror predicts reliably.
func NewSampledSession(cfg Config, sampler *AdaptiveSampler) (*SampledSession, error) {
	return core.NewSampledSession(cfg, sampler)
}

// Baselines.
type (
	// CacheBaseline is the precision-bound value-caching scheme of
	// Olston et al. the paper evaluates against.
	CacheBaseline = baseline.Cache
	// MovingAverage is the Example 3 smoothing comparison.
	MovingAverage = baseline.MovingAverage
	// BaselineMetrics aggregates a baseline run.
	BaselineMetrics = baseline.Metrics
)

// NewCacheBaseline returns a caching baseline with bound width w over
// dims attributes.
func NewCacheBaseline(w float64, dims int) (*CacheBaseline, error) {
	return baseline.NewCache(w, dims)
}

// NewMovingAverage returns a window-length moving average.
func NewMovingAverage(window int) (*MovingAverage, error) { return baseline.NewMovingAverage(window) }

// Workload generators (deterministic given their Seed).
type (
	// MovingObjectConfig parameterizes the Example 1 trajectory.
	MovingObjectConfig = gen.MovingObjectConfig
	// PowerLoadConfig parameterizes the Example 2 load series.
	PowerLoadConfig = gen.PowerLoadConfig
	// HTTPTrafficConfig parameterizes the Example 3 traffic series.
	HTTPTrafficConfig = gen.HTTPTrafficConfig
)

// MovingObject generates the Example 1 piecewise-linear 2-D trajectory.
func MovingObject(cfg MovingObjectConfig) []Reading { return gen.MovingObject(cfg) }

// DefaultMovingObject returns the Example 1 configuration.
func DefaultMovingObject() MovingObjectConfig { return gen.DefaultMovingObject() }

// PowerLoad generates the Example 2 diurnal load series.
func PowerLoad(cfg PowerLoadConfig) []Reading { return gen.PowerLoad(cfg) }

// DefaultPowerLoad returns the Example 2 configuration.
func DefaultPowerLoad() PowerLoadConfig { return gen.DefaultPowerLoad() }

// HTTPTraffic generates the Example 3 noisy traffic series.
func HTTPTraffic(cfg HTTPTrafficConfig) []Reading { return gen.HTTPTraffic(cfg) }

// DefaultHTTPTraffic returns the Example 3 configuration.
func DefaultHTTPTraffic() HTTPTrafficConfig { return gen.DefaultHTTPTraffic() }

// End-to-end DSMS.
type (
	// DSMSServer is the central query server.
	DSMSServer = dsms.Server
	// Catalog resolves model names shared by server and sources.
	Catalog = dsms.Catalog
	// Agent is the in-process source agent.
	Agent = dsms.Agent
	// TCPServer exposes a DSMSServer over the binary framed wire
	// protocol.
	TCPServer = dsms.TCPServer
	// RemoteAgent is a TCP-connected source agent with pipelined,
	// window-limited update delivery.
	RemoteAgent = dsms.RemoteAgent
	// QueryClient asks a TCPServer for answers.
	QueryClient = dsms.QueryClient
	// DialOptions tunes a RemoteAgent: ack window, tracing.
	DialOptions = dsms.DialOptions
	// UDPServer accepts the connectionless datagram transport on one
	// socket and feeds the shard-per-core ingest engine.
	UDPServer = dsms.UDPServer
	// UDPServerOptions tunes the datagram socket and the ingest engine.
	UDPServerOptions = dsms.UDPServerOptions
	// EngineOptions sizes the ingest engine (shard count, ring capacity).
	EngineOptions = dsms.EngineOptions
	// UDPAgent is a datagram-connected source agent: no acks, no resend
	// queue — the DKF protocol's loss tolerance is the reliability layer.
	UDPAgent = dsms.UDPAgent
	// UDPDialOptions tunes a UDPAgent handshake.
	UDPDialOptions = dsms.UDPDialOptions
	// UDPBatcher multiplexes many sources' updates over one datagram
	// socket, packing frames into shared datagrams (the fan-in shape).
	UDPBatcher = dsms.UDPBatcher
)

// NewCatalog returns an empty model catalog.
func NewCatalog() *Catalog { return dsms.NewCatalog() }

// DefaultCatalog returns a catalog preloaded with the paper's models for
// sampling interval dt.
func DefaultCatalog(dt float64) *Catalog { return dsms.DefaultCatalog(dt) }

// NewDSMSServer returns a query server resolving models from catalog.
func NewDSMSServer(catalog *Catalog) *DSMSServer { return dsms.NewServer(catalog) }

// NewAgent builds an in-process source agent.
func NewAgent(cfg Config, send Transport) (*Agent, error) { return dsms.NewAgent(cfg, send) }

// NewTCPServer wraps a server with a TCP listener on addr.
func NewTCPServer(server *DSMSServer, addr string) (*TCPServer, error) {
	return dsms.NewTCPServer(server, addr)
}

// DialSource connects a source agent to a TCP server.
func DialSource(addr, sourceID string, catalog *Catalog) (*RemoteAgent, error) {
	return dsms.DialSource(addr, sourceID, catalog)
}

// DialSourceOptions connects a source agent with an explicit ack window.
func DialSourceOptions(addr, sourceID string, catalog *Catalog, opts DialOptions) (*RemoteAgent, error) {
	return dsms.DialSourceOptions(addr, sourceID, catalog, opts)
}

// DialQuery connects a query client to a TCP server.
func DialQuery(addr string) (*QueryClient, error) { return dsms.DialQuery(addr) }

// NewUDPServer binds the connectionless datagram transport on addr,
// starting the server's shard ingest engine if none is attached yet.
func NewUDPServer(server *DSMSServer, addr string, opts UDPServerOptions) (*UDPServer, error) {
	return dsms.NewUDPServer(server, addr, opts)
}

// DialSourceUDP connects a datagram source agent to a UDP server.
func DialSourceUDP(addr, sourceID string, catalog *Catalog, opts UDPDialOptions) (*UDPAgent, error) {
	return dsms.DialSourceUDP(addr, sourceID, catalog, opts)
}

// DialUDPBatcher opens a batching datagram sender that multiplexes many
// sources over one socket; flushBytes 0 selects the default packing.
func DialUDPBatcher(addr string, flushBytes int) (*UDPBatcher, error) {
	return dsms.DialUDPBatcher(addr, flushBytes)
}

// Sharded cluster mode: a consistent-hash router fronting several
// shard servers with the unmodified source protocol (DESIGN.md §17).
type (
	// ClusterRouter forwards sources to their owning shards, merges
	// cross-shard aggregate partials bit-identically, and migrates
	// live streams by checkpoint snapshot.
	ClusterRouter = cluster.Router
	// ClusterOptions tunes a ClusterRouter (vnodes, aggregate
	// re-suppression budget, telemetry).
	ClusterOptions = cluster.Options
	// PlacementRing is the consistent-hash ring mapping source ids to
	// shards, with virtual nodes, pins and a topology epoch.
	PlacementRing = cluster.Ring
)

// NewClusterRouter starts a router on listenAddr fronting the given
// shard servers (shardAddrs[i] is shard index i). Call Serve to accept
// sources.
func NewClusterRouter(listenAddr string, shardAddrs []string, opts ClusterOptions) (*ClusterRouter, error) {
	return cluster.NewRouter(listenAddr, shardAddrs, opts)
}

// NewPlacementRing builds a standalone placement ring over shards
// 0..shards-1 (vnodes 0 means the default).
func NewPlacementRing(shards, vnodes int) *PlacementRing { return cluster.NewRing(shards, vnodes) }

// Aggregate continuous queries and the query language.
type (
	// AggregateQuery is a continuous aggregate over multiple sources
	// with a composed precision constraint.
	AggregateQuery = dsms.AggregateQuery
	// AggFunc names an aggregate function (avg, sum, min, max).
	AggFunc = dsms.AggFunc
	// CQLStatement is a parsed continuous-query-language statement.
	CQLStatement = cql.Statement
	// WindowQuery is a time-windowed aggregate over one source,
	// evaluated by history replay.
	WindowQuery = dsms.WindowQuery
)

// Aggregate functions.
const (
	AggAvg = dsms.AggAvg
	AggSum = dsms.AggSum
	AggMin = dsms.AggMin
	AggMax = dsms.AggMax
)

// ParseCQL parses a continuous-query statement like
// "SELECT AVG FROM z1, z2 MODEL linear WITHIN 50 AS load".
func ParseCQL(statement string) (*CQLStatement, error) { return cql.Parse(statement) }

// InstallCQL parses the statement and registers it with the server,
// returning the query name.
func InstallCQL(server *DSMSServer, statement string) (string, error) {
	return cql.Install(server, statement)
}

// Online model adaptation (future work item 2).
type (
	// Selector tracks candidate models against the live stream.
	Selector = adapt.Selector
	// AdaptiveRunner switches DKF models online per the Selector.
	AdaptiveRunner = adapt.Runner
	// Scoring selects how the Selector ranks candidates.
	Scoring = adapt.Scoring
)

// Selector scoring rules.
const (
	ScoreAbsError      = adapt.ScoreAbsError
	ScoreLogLikelihood = adapt.ScoreLogLikelihood
)

// NewSelectorScored builds a model selector with an explicit scoring
// rule (absolute error or innovation log-likelihood).
func NewSelectorScored(models []Model, window int, hysteresis float64, scoring Scoring) (*Selector, error) {
	return adapt.NewSelectorScored(models, window, hysteresis, scoring)
}

// NewSelector builds a model selector over candidates.
func NewSelector(models []Model, window int, hysteresis float64) (*Selector, error) {
	return adapt.NewSelector(models, window, hysteresis)
}

// NewAdaptiveRunner builds an adaptive DKF runner.
func NewAdaptiveRunner(sourceID string, delta, f float64, selector *Selector) (*AdaptiveRunner, error) {
	return adapt.NewRunner(sourceID, delta, f, selector)
}

// Transport reliability decorators.
type (
	// LossyTransport injects seeded random update loss (fault testing).
	LossyTransport = core.LossyTransport
	// ReliableTransport masks detectable loss with retries.
	ReliableTransport = core.ReliableTransport
	// LossMode selects silent vs detectable loss.
	LossMode = core.LossMode
)

// Loss modes.
const (
	LossSilent = core.LossSilent
	LossDetect = core.LossDetect
)

// ErrDropped is returned by a detectably-lossy transport.
var ErrDropped = core.ErrDropped

// NewLossyTransport wraps inner with seeded random loss.
func NewLossyTransport(inner Transport, p float64, mode LossMode, seed int64) (*LossyTransport, error) {
	return core.NewLossyTransport(inner, p, mode, seed)
}

// NewReliableTransport wraps inner with up to maxRetries resends.
func NewReliableTransport(inner Transport, maxRetries int) (*ReliableTransport, error) {
	return core.NewReliableTransport(inner, maxRetries)
}

// NewSessionWithTransport builds a session whose updates flow through a
// caller-supplied transport chain (see core.NewSessionWithTransport).
func NewSessionWithTransport(cfg Config, wrap func(direct Transport) (Transport, error)) (*Session, error) {
	return core.NewSessionWithTransport(cfg, wrap)
}

// Nonlinear DKF (future work item 3).
type (
	// NonlinearConfig assembles an EKF-based DKF deployment.
	NonlinearConfig = core.NonlinearConfig
	// NonlinearSession runs the DKF protocol over an EKF pair.
	NonlinearSession = core.NonlinearSession
)

// NewNonlinearSession builds the EKF source/server pair.
func NewNonlinearSession(cfg NonlinearConfig) (*NonlinearSession, error) {
	return core.NewNonlinearSession(cfg)
}

// Threshold alerts.
type (
	// Alert is a continuous threshold predicate over a query.
	Alert = dsms.Alert
	// AlertEvent is delivered when an alert fires.
	AlertEvent = dsms.AlertEvent
	// AlertDirection selects the firing crossing.
	AlertDirection = dsms.AlertDirection
	// Notification is pushed to Subscribe listeners on fresh answers.
	Notification = dsms.Notification
)

// Alert directions.
const (
	AlertAbove = dsms.AlertAbove
	AlertBelow = dsms.AlertBelow
)

// Error-bounded stream storage (future work item 7).
type (
	// SynopsisStore summarizes a stream under a reconstruction error
	// tolerance.
	SynopsisStore = synopsis.Store
)

// NewSynopsis returns an empty synopsis store under model m with
// per-attribute reconstruction tolerance tol.
func NewSynopsis(m Model, tol float64) (*SynopsisStore, error) { return synopsis.New(m, tol) }

// DecodeSynopsis reconstructs a store from its encoding, resolving the
// model by name.
func DecodeSynopsis(data []byte, resolve func(name string) (Model, error)) (*SynopsisStore, error) {
	return synopsis.Decode(data, resolve)
}

// Sensor energy accounting (the paper's §1 motivation).
type (
	// EnergyModel prices instructions and transmitted bits.
	EnergyModel = netsim.EnergyModel
	// EnergyAccount tracks a node's cumulative energy spend.
	EnergyAccount = netsim.Account
)

// DefaultEnergyModel returns the paper's mid-range bit/instruction
// pricing.
func DefaultEnergyModel() EnergyModel { return netsim.DefaultEnergyModel() }

// NewEnergyAccount returns an account under the model; battery <= 0
// means unlimited.
func NewEnergyAccount(model EnergyModel, battery float64) (*EnergyAccount, error) {
	return netsim.NewAccount(model, battery)
}
