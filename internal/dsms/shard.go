package dsms

import (
	"fmt"

	"streamkf/internal/dsms/wire"
)

// Shard-side cluster surface: what a Server exposes when it runs as one
// shard of a consistent-hash cluster behind a dkf-router (see
// internal/dsms/cluster). A shard is an ordinary server — same filters,
// same WAL, same query answers — plus three things: an identity (shard
// index and the topology epoch it has observed, two atomics on Server),
// a released mark on each stream record migrated away, and single-stream
// snapshot/restore built on the checkpoint encoding (persist.go), which
// is what moves a live stream between shards without re-bootstrapping
// its filter pair.

// SetShardInfo declares this server to be shard index of a cluster at
// topology epoch. Index -1 (the default) means standalone.
func (s *Server) SetShardInfo(index int, epoch int64) {
	s.shardIndex.Store(int64(index))
	s.shardEpoch.Store(epoch)
}

// ShardIndex returns the server's shard index, -1 when standalone.
func (s *Server) ShardIndex() int { return int(s.shardIndex.Load()) }

// TopologyEpoch returns the highest topology epoch this shard has
// observed from its router.
func (s *Server) TopologyEpoch() int64 { return s.shardEpoch.Load() }

// ObserveEpoch folds a router-announced topology epoch into the shard's
// high-water mark.
func (s *Server) ObserveEpoch(epoch int64) {
	for {
		cur := s.shardEpoch.Load()
		if epoch <= cur || s.shardEpoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// SnapshotSource cuts a migration snapshot of one stream — the
// checkpoint encoding of its queries, counters and filter
// state — marks the stream released at epoch, and returns the payload
// plus the last update seq it covers (the cutover ResumeSeq). The mark
// is set in the lock section that cuts the snapshot, so no update past
// resumeSeq is ever applied here; the router replays anything past it
// on the target.
func (s *Server) SnapshotSource(sourceID string, epoch int64) (payload []byte, resumeSeq int64, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.source(sourceID)
	if st == nil {
		return nil, 0, fmt.Errorf("dsms: snapshot of unknown source %s", sourceID)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	payload, last := appendSourceEntry(make([]byte, 0, 512), st)
	st.releasedAt = epoch
	s.ObserveEpoch(epoch)
	return payload, int64(last), nil
}

// RestoreSource installs a migration snapshot (a SnapshotSource
// payload) on this shard: queries are adopted or registered, the filter
// state restored bit-identically, and the stream un-released if it had
// previously been migrated away (a migrate-back). On a durable server
// the restored state is checkpointed synchronously before returning, so
// acknowledging the migration never races a crash that would lose the
// transferred filter. Returns the stream's id and the last update seq
// the snapshot covers.
func (s *Server) RestoreSource(payload []byte, epoch int64) (sourceID string, resumeSeq int64, err error) {
	c := wire.NewCursor(payload)
	id, last, err := s.restoreSourceEntry(&c, false)
	if err != nil {
		return "", 0, err
	}
	if !c.Done() {
		return "", 0, errBadCheckpoint("trailing bytes after source entry")
	}
	s.ObserveEpoch(epoch)
	if s.db != nil {
		// The WAL never saw the transferred history, so the snapshot-
		// covered state must be durable before the migration is acked:
		// a post-ack crash then recovers the stream from this
		// checkpoint instead of losing it.
		if err := s.Checkpoint(); err != nil {
			return "", 0, fmt.Errorf("dsms: checkpointing restored source %s: %w", id, err)
		}
	}
	return id, int64(last), nil
}

// ClusterStreamz is the cluster block of the /streamz status document a
// shard serves.
type ClusterStreamz struct {
	ShardIndex      int   `json:"shard_index"`
	TopologyEpoch   int64 `json:"topology_epoch"`
	OwnedStreams    int   `json:"owned_streams"`
	ReleasedStreams int   `json:"released_streams"`
}

// clusterStreamz returns the cluster block, or nil while standalone.
func (s *Server) clusterStreamz() *ClusterStreamz {
	idx := s.ShardIndex()
	if idx < 0 {
		return nil
	}
	owned, released := 0, 0
	s.streams.each(func(st *sourceState) {
		owned++
		st.mu.Lock()
		if st.releasedAt >= 0 {
			released++
		}
		st.mu.Unlock()
	})
	return &ClusterStreamz{
		ShardIndex:      idx,
		TopologyEpoch:   s.TopologyEpoch(),
		OwnedStreams:    owned - released,
		ReleasedStreams: released,
	}
}
