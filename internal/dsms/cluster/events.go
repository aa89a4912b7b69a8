package cluster

import (
	"sync"

	"streamkf/internal/dsms"
	"streamkf/internal/telemetry"
	"streamkf/internal/trace"
)

// Topology event kinds. Events record the cluster's control-plane
// history — who connected, what moved, when epochs advanced — so a
// migration or crash leaves an auditable trail at /eventz even after
// its log lines scroll away.
const (
	EvShardConnect      = "shard_connect"
	EvShardDisconnect   = "shard_disconnect"
	EvShardReconnect    = "shard_reconnect"
	EvMigrationStart    = "migration_start"
	EvMigrationComplete = "migration_complete"
	EvPin               = "pin"
	EvEpochBump         = "epoch_bump"
)

// TopoEvent is one structured topology event.
type TopoEvent struct {
	At       int64   `json:"at_unix_ns"`
	Kind     string  `json:"kind"`
	Shard    int     `json:"shard"`
	SourceID string  `json:"source_id,omitempty"`
	Detail   string  `json:"detail,omitempty"`
	DurMs    float64 `json:"duration_ms,omitempty"`
}

// defaultEventCap bounds the event ring. Topology events are rare
// (connections, migrations, epochs — not per-update), so a small ring
// holds days of history.
const defaultEventCap = 256

// eventLog is the mutex-guarded last-N of topology events. The
// control-plane paths that record into it (connect, fail, migrate) are
// not hot paths, so a plain mutex is the right tool — no seqlock.
type eventLog struct {
	reg *telemetry.Registry

	mu  sync.Mutex
	evs *dsms.LastN[TopoEvent]
}

func newEventLog(reg *telemetry.Registry, capacity int) *eventLog {
	if capacity <= 0 {
		capacity = defaultEventCap
	}
	return &eventLog{reg: reg, evs: dsms.NewLastN[TopoEvent](capacity)}
}

// record appends one event, stamping At (trace-clock unix nanoseconds,
// so event times sort consistently against trace trails) when zero.
func (l *eventLog) record(ev TopoEvent) {
	if ev.At == 0 {
		ev.At = trace.Now()
	}
	l.mu.Lock()
	l.evs.Put(ev)
	l.mu.Unlock()
	l.reg.Counter("dkf_router_topology_events_total",
		"Topology events recorded by the router, by kind.",
		telemetry.L("kind", ev.Kind)).Inc()
}

// Events returns the newest limit retained events (all of them when limit
// is not positive), newest first, and the lifetime total (more than are
// returned means older ones were dropped or not asked for).
func (l *eventLog) Events(limit int) ([]TopoEvent, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evs.Last(limit, true), l.evs.Total()
}
