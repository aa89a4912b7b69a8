// Shard ingest engine integration: pins every stream to one shard
// worker (internal/dsms/engine), which applies updates in batch through
// applyRun (dsms.go) and group-commits the WAL once a round — the
// per-update lock handoff and per-update fsync disappear from the
// steady-state path. Cross-shard readers (Answer, Stats,
// Streamz) still take the per-source lock; shard ownership just
// guarantees the ingest side of that lock is a single uncontended writer.
package dsms

import (
	"errors"

	"streamkf/internal/core"
	"streamkf/internal/dsms/engine"
)

// EngineOptions aliases engine.Options so callers configure the engine
// without importing the engine package.
type EngineOptions = engine.Options

// StartEngine attaches a shard-per-core ingest engine to the server and
// returns it, or the one already attached; its Close shuts it down. A UDP
// server takes a producer on it for its reader. opts.Shards <= 0 selects
// GOMAXPROCS.
func (s *Server) StartEngine(opts EngineOptions) *engine.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.eng != nil {
		return s.eng
	}
	opts.Shards = min(opts.Shards, 1<<16) // an id-index slot keeps the shard in 16 bits
	e := engine.New(engineSink{s}, opts)
	s.shardLogs = make([]runLog, e.Shards()) // before any producer exists to offer
	s.engIns = newEngineInstruments(s.tel.reg, e)
	s.eng = e
	// Pin the streams already registered — no reader of the record's shard
	// exists yet — and republish the index, whose slots cached shard 0.
	s.streams.each(func(st *sourceState) { st.shard = int32(e.ShardFor(st.id)) })
	s.ids.rebuild(&s.streams)
	return e
}

// Engine returns the attached ingest engine, or nil.
func (s *Server) Engine() *engine.Engine {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng
}

// engineSink adapts the server to the engine's batch interface without
// exporting ApplyBatch on Server itself.
type engineSink struct{ s *Server }

// ApplyBatch applies a batch of ring slots on the owning shard's worker:
// each run of consecutive updates for one source is one applyRun, logged
// to the shard's run record. Datagrams are not acked, so there is nothing
// to hold back: a refused update or a failed commit is counted, and the
// stream re-converges from the next updates.
func (es engineSink) ApplyBatch(shard int, batch []core.Update) {
	s, ins := es.s, es.s.engIns
	wl := &s.shardLogs[shard] // touched only by this worker
	applied := 0
	for i := 0; i < len(batch); {
		n, err := s.applyRun(batch[i:], nil, wl)
		applied += n
		i += n
		switch {
		case err == nil:
			continue
		case errors.Is(err, errNotLogged):
			ins.walErrors.Inc()
			continue // applied; only a record is missing
		case err == errUninstalled:
			// Datagrams have no handshake to install a registered
			// source's filter: first contact does, and tries again.
			if _, ierr := s.InstallFor(batch[i].SourceID); ierr == nil {
				continue
			}
			ins.unknown.Inc()
		case err == errDuplicate:
			ins.shardDedup[shard].Inc()
		case err == errPreBootstrap:
			ins.preBootstrap.Inc()
		default:
			ins.rejected.Inc()
		}
		i++
	}
	ins.shardApplied[shard].Add(int64(applied))
}

// EndRound commits the round's run record: one log lock and, under
// SyncAlways, one fsync, however many batches the round took.
func (es engineSink) EndRound(shard int) {
	if s := es.s; s.db != nil {
		if err := s.db.commit(&s.shardLogs[shard]); err != nil {
			s.engIns.walErrors.Inc()
		}
		s.maybeCheckpoint()
	}
}

// ShardStreamz is one shard's occupancy block in /streamz.
type ShardStreamz struct {
	Shard        int   `json:"shard"`
	Applied      int64 `json:"applied"`
	Dedup        int64 `json:"dedup"`
	Dropped      int64 `json:"dropped"`
	RingDepthHWM int64 `json:"ring_depth_hwm"`
}

// LaneStreamz is the UDP reader's block in /streamz: how many receive
// syscalls it made and how many datagrams each drained. The reader of a
// second UDPServer on the same Server adds into the same block.
type LaneStreamz struct {
	Batches  int64   `json:"batches"`
	AvgBatch float64 `json:"avg_batch"`
}

// EngineStreamz is the ingest engine's status document: per-shard
// occupancy plus the datagram transport's rx/drop taxonomy and, when a
// UDP server feeds the engine, its reader's one entry in Lanes.
type EngineStreamz struct {
	Shards          int   `json:"shards"`
	DatagramsRx     int64 `json:"datagrams_rx"`
	DatagramsBad    int64 `json:"datagrams_bad"`
	FramesRx        int64 `json:"frames_rx"`
	PreBootstrap    int64 `json:"pre_bootstrap_dropped"`
	UnknownSource   int64 `json:"unknown_source_dropped"`
	Rejected        int64 `json:"rejected"`
	WALCommitErrors int64 `json:"wal_commit_errors"`
	// ShedRatePerSec is the ring-full shed rate over the self-monitor's
	// rate window, summed across shards — the first-class version of
	// the number operators used to derive from consecutive scrapes of
	// dkf_engine_ring_dropped_total. Present only with self-monitoring
	// enabled (the shed_rate signal's window supplies the time dimension).
	ShedRatePerSec *float64       `json:"shed_rate_per_sec,omitempty"`
	PerShard       []ShardStreamz `json:"per_shard"`
	Lanes          []LaneStreamz  `json:"lanes,omitempty"`
}

// engineStreamz assembles the engine block, or nil without an engine.
func (s *Server) engineStreamz() *EngineStreamz {
	e := s.Engine()
	if e == nil {
		return nil
	}
	ins := s.engIns
	z := &EngineStreamz{
		Shards:          e.Shards(),
		DatagramsRx:     ins.datagramsRx.Value(),
		DatagramsBad:    ins.datagramsBad.Value(),
		FramesRx:        ins.framesRx.Value(),
		PreBootstrap:    ins.preBootstrap.Value(),
		UnknownSource:   ins.unknown.Value(),
		Rejected:        ins.rejected.Value(),
		WALCommitErrors: ins.walErrors.Value(),
	}
	if m := s.SelfMon(); m != nil {
		for _, sig := range m.Signals() {
			if sig.Name == "shed_rate" && sig.Fed {
				z.ShedRatePerSec = &sig.Value
			}
		}
	}
	stats := e.Stats()
	z.PerShard = make([]ShardStreamz, len(stats))
	for i, sh := range stats {
		z.PerShard[i] = ShardStreamz{
			Shard:        sh.Shard,
			Applied:      ins.shardApplied[i].Value(),
			Dedup:        ins.shardDedup[i].Value(),
			Dropped:      int64(sh.Dropped),
			RingDepthHWM: int64(sh.RingDepthHWM),
		}
	}
	if h, ok := s.tel.reg.HistogramFor("dkf_udp_rx_batch_size"); ok {
		snap := h.Snapshot()
		ls := LaneStreamz{Batches: snap.Count}
		if snap.Count > 0 {
			ls.AvgBatch = float64(snap.Sum) / float64(snap.Count)
		}
		z.Lanes = []LaneStreamz{ls}
	}
	return z
}
