package cluster

import (
	"errors"
	"fmt"
	"slices"

	"streamkf/internal/dsms/wire"
	"streamkf/internal/trace"
)

// Live stream migration. The sequence, with the route lock held end to
// end so no forward can slip between the snapshot and the cutover:
//
//  1. Snapshot RPC to the old shard. The RPC's flush pushes every
//     buffered forward ahead of it (FIFO per upstream), and the shard
//     applies what it has read before it answers, so the snapshot — the
//     checkpoint encoding of the stream's queries, counters and filter
//     state — covers everything the router ever forwarded (a refused
//     forward fails the whole upstream, and the RPC with it). The old
//     shard marks the stream released and rejects later forwards.
//  2. Restore RPC installs the snapshot on the target, which replies
//     StateAck(resumeSeq): the last update seq its adopted state
//     covers. On a durable target the state is checkpointed before the
//     ack, so a crash after this point recovers the stream.
//  3. Cutover: the ring pins the stream to the target so future
//     placement (queries, reconnects) agrees, and the route resumes on
//     the target from resumeSeq (Router.resume). With a live old shard
//     resumeSeq covers every update the route has read, so the source is
//     acked through it; had the route dropped any (its shard was lost),
//     the source resends them to the target. Either way the target
//     resumes the filter pair from the snapshot — no re-bootstrap, no
//     dropped acked update.
//
// The source notices nothing: its connection, its install, and its
// cumulative ack stream are all continuous.

// Migrate moves sourceID's stream to the target shard.
func (r *Router) Migrate(sourceID string, target int) error {
	if target < 0 || target >= len(r.upstreams) {
		return fmt.Errorf("cluster: no shard %d", target)
	}
	// Migrating a member of a registered aggregate would strand its
	// shard-local partial (the aggregate split is fixed at registration);
	// refuse rather than silently double-count.
	r.regMu.Lock()
	for id, a := range r.aggs {
		if slices.Contains(a.q.SourceIDs, sourceID) {
			r.regMu.Unlock()
			return fmt.Errorf("cluster: %s is a member of aggregate %s; re-register the aggregate instead of migrating", sourceID, id)
		}
	}
	r.regMu.Unlock()

	rt := r.routeFor([]byte(sourceID))
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.shard == target {
		return nil
	}
	oldUp, newUp := r.upstreams[rt.shard], r.upstreams[target]
	epoch := r.ring.Epoch() + 1 // the epoch Pin will establish below
	migStart := trace.Now()
	r.events.record(TopoEvent{
		Kind: EvMigrationStart, Shard: oldUp.shard, SourceID: sourceID,
		Detail: fmt.Sprintf("to shard %d", target),
	})

	snap, err := oldUp.state(func(w *wire.Writer) error { return w.Snapshot(sourceID, epoch) })
	if err != nil {
		return fmt.Errorf("cluster: snapshot %s on shard %d: %w", sourceID, oldUp.shard, err)
	}
	if len(snap.Payload) == 0 {
		return errors.New("cluster: empty migration snapshot")
	}
	ack, err := newUp.state(func(w *wire.Writer) error { return w.Restore(epoch, snap.Payload) })
	if err != nil {
		return fmt.Errorf("cluster: restore %s on shard %d: %w", sourceID, target, err)
	}
	resume := ack.ResumeSeq

	r.ring.Pin(sourceID, target)
	rt.shard = target
	rt.epoch = r.ring.Epoch()
	r.tel.migrations.Inc()
	r.events.record(TopoEvent{
		Kind: EvPin, Shard: target, SourceID: sourceID,
		Detail: fmt.Sprintf("pinned off shard %d", oldUp.shard),
	})
	r.events.record(TopoEvent{
		Kind: EvEpochBump, Shard: target,
		Detail: fmt.Sprintf("epoch %d", rt.epoch),
	})
	r.events.record(TopoEvent{
		Kind: EvMigrationComplete, Shard: target, SourceID: sourceID,
		Detail: fmt.Sprintf("from shard %d, resume seq %d", oldUp.shard, resume),
		DurMs:  float64(trace.Now()-migStart) / 1e6,
	})
	r.log.Info("stream migrated", "source", sourceID, "from", oldUp.shard, "to", target, "resume_seq", resume)

	// The transferred prefix is durable on the target; release the
	// source's window for it (the agent's monotonic ack guard makes a
	// duplicate or reordered cumulative ack harmless), or have it resend
	// what the target lacks.
	r.resume(rt, resume)
	return nil
}
