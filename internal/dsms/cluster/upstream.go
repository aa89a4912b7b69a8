package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"streamkf/internal/dsms"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/stream"
)

// The upstream pool. The concurrency invariants are stated at the top
// of router.go.

type rpcReply struct {
	tag wire.Tag
	p   []byte
}

// upstream is the pooled connection to one shard.
type upstream struct {
	shard  int
	addr   string
	router *Router

	mu    sync.Mutex // write lock: w, err, conn, feats
	conn  net.Conn
	w     *wire.Writer
	err   error
	feats byte
	alive bool

	rpcMu      sync.Mutex // one outstanding RPC per upstream
	rpcWaiting bool       // guarded by mu
	rpcCh      chan rpcReply
	dead       chan struct{} // closed when the reader for this conn exits
}

func (up *upstream) connect() error {
	conn, w, rd, feats, err := dsms.DialWire(up.addr, "", wire.FeatCluster, 64*1024, up.router.opts.MaxFrame)
	if err == nil && feats&wire.FeatCluster == 0 {
		conn.Close()
		err = errors.New("peer does not speak the cluster extension")
	}
	if err != nil {
		return fmt.Errorf("cluster: shard %d: %w", up.shard, err)
	}
	dead := make(chan struct{})
	up.mu.Lock()
	up.conn = conn
	up.w = w
	up.err = nil
	up.feats = feats
	up.alive = true
	up.dead = dead
	up.mu.Unlock()
	up.router.tel.upstreamConns.Add(1)
	up.router.events.record(TopoEvent{Kind: EvShardConnect, Shard: up.shard, Detail: up.addr})
	go up.readLoop(rd, conn, dead)
	return nil
}

// fail records a sticky upstream error and tears the connection down.
// Routes drop what they read meanwhile; ReconnectShard resumes them.
func (up *upstream) fail(err error) {
	up.mu.Lock()
	if !up.alive {
		up.mu.Unlock()
		return
	}
	up.alive = false
	if up.err == nil {
		up.err = err
	}
	conn := up.conn
	up.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	up.router.tel.upstreamConns.Add(-1)
	up.router.events.record(TopoEvent{Kind: EvShardDisconnect, Shard: up.shard, Detail: err.Error()})
	up.router.log.Warn("upstream shard lost", "shard", up.shard, "err", err)
}

func (up *upstream) close() { up.fail(errors.New("cluster: router closed")) }

// write runs f on the shard connection's writer under up.mu, unless the
// upstream has failed already; a write error fails it.
func (up *upstream) write(f func(w *wire.Writer) error) error {
	up.mu.Lock()
	err := up.err
	if err == nil {
		err = f(up.w)
	}
	up.mu.Unlock()
	if err != nil {
		up.fail(err) // no-op if it had failed already
	}
	return err
}

// readLoop demultiplexes one upstream connection: ForwardAcks go to the
// ack pump, everything else is the reply to the (single) pending RPC.
func (up *upstream) readLoop(rd *wire.Reader, conn net.Conn, dead chan struct{}) {
	defer close(dead)
	for {
		tag, p, err := rd.Next()
		if err != nil {
			up.fail(fmt.Errorf("cluster: shard %d recv: %w", up.shard, err))
			return
		}
		if tag == wire.TagForwardAck {
			idx, seq, err := wire.DecodeForwardAck(p)
			if err != nil {
				up.fail(fmt.Errorf("cluster: shard %d: %w", up.shard, err))
				return
			}
			up.router.pumpAck(up.shard, idx, seq)
			continue
		}
		up.mu.Lock()
		waiting := up.rpcWaiting
		up.mu.Unlock()
		if waiting {
			// The reply frame aliases the reader's buffer; the waiter
			// outlives this iteration, so hand it a copy.
			up.rpcCh <- rpcReply{tag: tag, p: append([]byte(nil), p...)}
			continue
		}
		if tag == wire.TagError {
			msg, _ := wire.DecodeError(p)
			up.fail(fmt.Errorf("cluster: shard %d error: %s", up.shard, msg))
			return
		}
		up.fail(fmt.Errorf("cluster: shard %d sent unexpected %v", up.shard, tag))
		return
	}
}

// rpc writes one request frame, waits for its reply and returns the
// reply payload, which must carry the tag want — the one place every
// router→shard protocol step goes through. The write and the rpcWaiting
// flag flip under up.mu, so the reader (which sees the reply only after
// the request reached the shard) always observes waiting == true. The
// flush also pushes any buffered forwards first — FIFO ordering that
// migration correctness depends on.
func (up *upstream) rpc(want wire.Tag, write func(w *wire.Writer) error) ([]byte, error) {
	up.rpcMu.Lock()
	defer up.rpcMu.Unlock()
	var dead chan struct{}
	err := up.write(func(w *wire.Writer) error {
		select { // drop a stale reply from a failed predecessor
		case <-up.rpcCh:
		default:
		}
		up.rpcWaiting, dead = true, up.dead
		if err := write(w); err != nil {
			return err
		}
		return w.Flush()
	})
	var reply rpcReply
	if err == nil {
		select {
		case reply = <-up.rpcCh:
		case <-dead:
			err = fmt.Errorf("cluster: shard %d connection lost", up.shard)
		}
	}
	up.mu.Lock()
	up.rpcWaiting = false
	if err != nil && up.err != nil {
		err = up.err // why the connection was lost
	}
	up.mu.Unlock()
	switch {
	case err != nil:
		return nil, err
	case reply.tag == wire.TagError:
		msg, _ := wire.DecodeError(reply.p)
		return nil, fmt.Errorf("cluster: shard %d: %s", up.shard, msg)
	case reply.tag != want:
		return nil, fmt.Errorf("cluster: shard %d replied %v, want %v", up.shard, reply.tag, want)
	}
	return reply.p, nil
}

// hello asks the shard to install sourceID's filter.
func (up *upstream) hello(sourceID string) (wire.Install, error) {
	p, err := up.rpc(wire.TagInstall, func(w *wire.Writer) error { return w.Hello(sourceID) })
	if err != nil {
		return wire.Install{}, err
	}
	return wire.DecodeInstall(p)
}

// registerQuery registers (or, after a shard restart, re-confirms) a
// single-stream query.
func (up *upstream) registerQuery(q stream.Query) error {
	_, err := up.rpc(wire.TagRegistered, func(w *wire.Writer) error {
		return w.RegisterQuery(wire.ClusterQuery{ID: q.ID, SourceID: q.SourceID, Model: q.Model, Delta: q.Delta, F: q.F})
	})
	return err
}

// registerPartial registers the shard-local partial of a cross-shard
// aggregate over members. Budget ladder: with the cluster budget split
// β, each shard runs at (1-β)Δ — scaled by its member share for sum,
// full width for avg/min/max — so the shard-local PerSourceDelta()
// allocation yields exactly the single-server δ_i when β = 0:
//
//	sum: δ_i = (1-β)Δ·(n_shard/n_total)/n_shard = (1-β)Δ/n_total
//	avg/min/max: δ_i = (1-β)Δ
func (up *upstream) registerPartial(q dsms.AggregateQuery, members []string, beta float64) error {
	delta := (1 - beta) * q.Delta
	if q.Func == dsms.AggSum {
		delta *= float64(len(members)) / float64(len(q.SourceIDs))
	}
	_, err := up.rpc(wire.TagRegistered, func(w *wire.Writer) error {
		return w.RegisterAggregate(wire.ClusterAggregate{
			ID: q.ID, Func: string(q.Func), Model: q.Model,
			Delta: delta, F: q.F, Partial: true, SourceIDs: members,
		})
	})
	return err
}

// query asks the shard for a query's (or partial aggregate's) values
// at seq.
func (up *upstream) query(queryID string, seq int) ([]float64, error) {
	p, err := up.rpc(wire.TagAnswer, func(w *wire.Writer) error { return w.Query(queryID, int64(seq)) })
	if err != nil {
		return nil, err
	}
	_, vals, err := wire.DecodeAnswer(p)
	return vals, err
}

// state runs a snapshot or restore request (migrate.go).
func (up *upstream) state(write func(w *wire.Writer) error) (wire.StateAck, error) {
	p, err := up.rpc(wire.TagStateAck, write)
	if err != nil {
		return wire.StateAck{}, err
	}
	return wire.DecodeStateAck(p)
}
