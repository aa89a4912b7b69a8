package cluster

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms/engine"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
)

// rawShard is a shard that answers the router's preamble with feats and
// records every forward it reads: its size on the wire and the seqs of
// its update frames. It installs any hello and acks each forward through
// its last seq; any other frame, or a forward it cannot walk, ends the
// connection.
type rawShard struct {
	addr string
	mu   sync.Mutex
	fwds []rawForward
}

type rawForward struct {
	size int // the whole frame, header included
	seqs []int
}

func startRawShard(t *testing.T, feats byte) *rawShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	sh := &rawShard{addr: ln.Addr().String()}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go sh.serve(conn, feats)
		}
	}()
	return sh
}

func (sh *rawShard) serve(conn net.Conn, feats byte) {
	defer conn.Close()
	r, w := wire.NewReader(conn, 0, 0), wire.NewWriter(conn, 0, 0)
	if _, _, err := r.ReadPreamble(); err != nil || w.WritePreamble(wire.Version, feats) != nil || w.Flush() != nil {
		return
	}
	for {
		tag, p, err := r.Next()
		if err != nil {
			return
		}
		switch tag {
		case wire.TagHello:
			id, _ := wire.DecodeHello(p)
			err = w.Install(wire.Install{SourceID: id, Model: "constant", Delta: 1, ResumeSeq: -1})
		case wire.TagForward:
			idx, _, frames, derr := wire.DecodeForward(p)
			fwd := rawForward{size: len(p) + 5}
			for derr == nil && len(frames) > 0 {
				var f []byte
				var u core.Update
				if f, frames, derr = wire.NextForwarded(frames); derr == nil {
					derr = wire.DecodeUpdatePayload(f[5:], &u)
				}
				fwd.seqs = append(fwd.seqs, u.Seq)
			}
			if derr != nil {
				return
			}
			sh.mu.Lock()
			sh.fwds = append(sh.fwds, fwd)
			sh.mu.Unlock()
			err = w.ForwardAck(idx, int64(fwd.seqs[len(fwd.seqs)-1]))
		default:
			return
		}
		if err == nil {
			err = w.Flush()
		}
		if err != nil {
			return
		}
	}
}

// seqs returns every seq the shard has been forwarded, in arrival order,
// and the forwards that carried them.
func (sh *rawShard) seqs() ([]int, []rawForward) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var seqs []int
	for _, f := range sh.fwds {
		seqs = append(seqs, f.seqs...)
	}
	return seqs, append([]rawForward(nil), sh.fwds...)
}

// updateFrames appends the frames of id's seqs from..to-1 to b back to
// back, as one write from a source (or one datagram) carries them.
func updateFrames(t *testing.T, b []byte, id string, from, to int) []byte {
	t.Helper()
	for seq := from; seq < to; seq++ {
		var err error
		if b, err = wire.AppendUpdateFrame(b, &core.Update{SourceID: id, Seq: seq, Values: []float64{float64(seq)}, Bootstrap: seq == 0}); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// dialRouter opens a source connection to the router and says hello for
// id, returning the connection after the install.
func dialRouter(t *testing.T, addr, id string) (net.Conn, *wire.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hello, _ := wire.AppendHelloFrame(wire.AppendPreamble(nil, wire.Version, 0), id)
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	rd := wire.NewReader(conn, 0, 0)
	if _, _, err := rd.ReadPreamble(); err != nil {
		t.Fatal(err)
	}
	if tag, _, err := rd.Next(); err != nil || tag != wire.TagInstall {
		t.Fatalf("handshake reply %v, %v", tag, err)
	}
	return conn, rd
}

// TestRelayCutsForwards relays one source read — and one datagram, with
// an unroutable update a third of the way in — of more than 2 ×
// engine.BatchSize updates to a raw shard, at the default max frame and at
// one that holds about twenty updates. Every forward holds at most
// engine.BatchSize update frames and fits the max frame, and every update
// arrives once, in order, in fewer forwards than updates.
func TestRelayCutsForwards(t *testing.T) {
	const id, n = "load-0", 2*engine.BatchSize + 89
	for _, maxFrame := range []int{0, 512} {
		for _, transport := range []string{"tcp", "udp"} {
			t.Run(fmt.Sprintf("%s/maxframe-%d", transport, maxFrame), func(t *testing.T) {
				sh := startRawShard(t, wire.FeatCluster)
				r, err := NewRouter("127.0.0.1:0", []string{sh.addr}, Options{MaxFrame: maxFrame})
				if err != nil {
					t.Fatal(err)
				}
				go r.Serve()
				t.Cleanup(func() { r.Close() })
				if transport == "tcp" {
					conn, rd := dialRouter(t, r.Addr(), id)
					if _, err := conn.Write(updateFrames(t, nil, id, 0, n)); err != nil {
						t.Fatal(err)
					}
					conn.SetReadDeadline(time.Now().Add(5 * time.Second)) // a failed upstream acks nothing
					for acked := int64(-1); acked < n-1; {
						tag, p, err := rd.Next()
						if err != nil || tag != wire.TagAck {
							t.Fatalf("acked through %d, then %v, %v", acked, tag, err)
						}
						acked, _ = wire.DecodeAck(p)
					}
				} else {
					go r.ServeUDP("127.0.0.1:0")
					for deadline := time.Now().Add(2 * time.Second); r.UDPAddr() == ""; time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatal("udp front did not come up")
						}
					}
					conn, err := net.Dial("udp", r.UDPAddr())
					if err != nil {
						t.Fatal(err)
					}
					defer conn.Close()
					// An update the router cannot route splits the datagram's run
					// in two that do not lie back to back.
					dgram := updateFrames(t, wire.AppendPreamble(nil, wire.Version, 0), id, 0, n/3)
					dgram, _ = wire.EndFrame(append(wire.BeginFrame(dgram, wire.TagUpdate), 0xff), len(dgram))
					if _, err := conn.Write(updateFrames(t, dgram, id, n/3, n)); err != nil {
						t.Fatal(err)
					}
					for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
						if seqs, _ := sh.seqs(); len(seqs) >= n {
							break
						}
						if time.Now().After(deadline) {
							t.Fatal("the shard was not forwarded the datagram's updates")
						}
					}
				}
				limit := maxFrame
				if limit == 0 {
					limit = wire.DefaultMaxFrame
				}
				seqs, fwds := sh.seqs()
				for i, f := range fwds {
					if len(f.seqs) > engine.BatchSize || f.size-4 > limit {
						t.Errorf("forward %d: %d updates in %d B, want at most %d in a %d-byte frame", i, len(f.seqs), f.size, engine.BatchSize, limit)
					}
				}
				if len(seqs) != n {
					t.Fatalf("%d updates forwarded, want %d", len(seqs), n)
				}
				for i, seq := range seqs {
					if seq != i {
						t.Fatalf("update %d forwarded as seq %d: not once each, in order", i, seq)
					}
				}
				if len(fwds) >= n/2 {
					t.Fatalf("%d updates in %d forwards: not relayed as runs", n, len(fwds))
				}
				t.Logf("%d updates in %d forwards", n, len(fwds))
			})
		}
	}
}

// TestUpstreamRefusesRetiredClusterBit: a shard that advertises 0x02, the
// one-update forward's retired cluster bit, or no bit at all, is refused
// at connect — never sent a forward it would misparse.
func TestUpstreamRefusesRetiredClusterBit(t *testing.T) {
	for _, feats := range []byte{0x02, 0x02 | wire.FeatEvidence, 0} {
		sh := startRawShard(t, feats)
		r, err := NewRouter("", []string{sh.addr}, Options{})
		if err == nil {
			r.Close()
			t.Fatalf("feats %#02x: the router took the shard as an upstream", feats)
		}
		if !strings.Contains(err.Error(), "does not speak the cluster extension") {
			t.Fatalf("feats %#02x: %v, want the cluster extension refused", feats, err)
		}
	}
}

// TestForwardBytesPerUpdate reads a shard's rx counters after one source
// write of n updates of load-0 below seq 128 (23-byte frames): the forward
// frames carry 17 bytes of head each and the update frames verbatim, so a
// run relayed as one forward costs 23 + 17/n bytes an update upstream —
// 40 for a run of one, 31.5 for two, 23.17 for a hundred — where the
// one-update forward cost 35 whatever the run.
func TestForwardBytesPerUpdate(t *testing.T) {
	const id = "load-0"
	for _, n := range []int{1, 2, 100} {
		r, shards := startCluster(t, 1, Options{})
		if err := r.RegisterQuery(stream.Query{ID: "q", SourceID: id, Delta: 1e-9, Model: "constant"}); err != nil {
			t.Fatal(err)
		}
		conn, rd := dialRouter(t, r.Addr(), id)
		frames := updateFrames(t, nil, id, 0, n)
		if len(frames) != 23*n {
			t.Fatalf("%d updates framed in %d B, want 23 each", n, len(frames))
		}
		if _, err := conn.Write(frames); err != nil {
			t.Fatal(err)
		}
		for acked := int64(-1); acked < int64(n-1); {
			tag, p, err := rd.Next()
			if err != nil || tag != wire.TagAck {
				t.Fatalf("acked through %d, then %v, %v", acked, tag, err)
			}
			acked, _ = wire.DecodeAck(p)
		}
		get := func(name string) float64 {
			v, _ := shards[0].Telemetry().Get(name, telemetry.L("tag", "forward"))
			return v
		}
		fwds, bytes := get("dkf_wire_rx_frames_total"), get("dkf_wire_rx_bytes_total")
		perUpdate := bytes / float64(n)
		t.Logf("run of %d: %v forwards, %v B, %.2f B an update", n, fwds, bytes, perUpdate)
		if fwds != 1 || perUpdate != 23+17/float64(n) {
			t.Errorf("run of %d: %v forwards of %v B, %.2f B an update; want one forward, %.2f B an update", n, fwds, bytes, perUpdate, 23+17/float64(n))
		}
		if st := shards[0].Stats(); len(st) != 1 || st[0].Updates != n {
			t.Fatalf("run of %d: shard stats %+v", n, st)
		}
	}
}
