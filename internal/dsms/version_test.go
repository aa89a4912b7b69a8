package dsms

import (
	"errors"
	"net"
	"net/netip"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/netsim"
	"streamkf/internal/telemetry"
)

// TestV2PeerRefused: from version 3 the constant and linear models settle
// a suppressed run's covariance steps in closed form (kalman/owed.go). A
// v2 source runs the old recursion, so its mirror would lose synchrony
// with the server at its first gap of two or more readings, and nothing
// would say so. Both transports refuse its preamble instead.
func TestV2PeerRefused(t *testing.T) {
	const v2 = 2
	t.Run("tcp", func(t *testing.T) {
		ts := startServer(t, NewServer(testCatalog()))
		conn, _, r := rawClient(t, ts.Addr())
		if err := writePreamble(conn, v2, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.ReadPreamble(); err != nil {
			t.Fatal(err)
		}
		expectErrorFrame(t, r, "unsupported protocol version 2")
	})
	t.Run("udp", func(t *testing.T) {
		q := udpQuery()
		ups := makeUpdates(t, q, udpData())
		s, ts := newUDPPair(t, q)
		for i := range ups {
			dg, err := wire.AppendUpdateFrame(wire.AppendPreamble(nil, v2, 0), &ups[i])
			if err != nil {
				t.Fatal(err)
			}
			ts.processDatagram(dg, netip.AddrPort{})
		}
		ts.eng.Quiesce()
		versionErrs, _ := s.Telemetry().Get("dkf_wire_errors_total", telemetry.L("kind", "version"))
		if bad := s.Streamz().Engine.DatagramsBad; bad != int64(len(ups)) || versionErrs != float64(len(ups)) {
			t.Fatalf("%d v2 datagrams: %d rejected, %v version errors", len(ups), bad, versionErrs)
		}
		if _, err := s.Answer(q.ID, ups[0].Seq); err == nil {
			t.Fatal("a v2 bootstrap was applied")
		}
		deliver(t, ts, ups, netsim.Link{}.Schedule(len(ups))) // the same updates at this version apply
		assertSameState(t, nodeSnapshot(t, s, q.SourceID), nodeSnapshot(t, refServer(t, q, ups), q.SourceID))
	})
}

// appendV3UpdateFrame encodes u as a wire v3 update frame: str id | i64
// seq | f64 time | u8 flags | u16 n | values.
func appendV3UpdateFrame(b []byte, u *core.Update) []byte {
	start := len(b)
	b, _ = wire.AppendString(wire.BeginFrame(b, wire.TagUpdate), u.SourceID)
	b = wire.AppendF64(wire.AppendI64(b, int64(u.Seq)), u.Time)
	flags := byte(0)
	if u.Bootstrap {
		flags = 0x01
	}
	b = wire.AppendU16(append(b, flags), uint16(len(u.Values)))
	for _, v := range u.Values {
		b = wire.AppendF64(b, v)
	}
	b, _ = wire.EndFrame(b, start)
	return b
}

// TestV3PeerRefused: from version 4 an update carries no time and no
// value count, and its seq is a uvarint. A v3 peer's update would not
// parse, or worse, would parse as other values; every entry refuses its
// preamble before any of its updates is read.
func TestV3PeerRefused(t *testing.T) {
	const v3 = 3
	q := udpQuery()
	ups := makeUpdates(t, q, udpData())
	t.Run("tcp_source", func(t *testing.T) {
		s := NewServer(testCatalog())
		mustRegister(t, s, q)
		ts := startServer(t, s)
		conn, _, r := rawClient(t, ts.Addr())
		hello, err := wire.AppendHelloFrame(wire.AppendPreamble(nil, v3, 0), q.SourceID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(appendV3UpdateFrame(hello, &ups[0])); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.ReadPreamble(); err != nil {
			t.Fatal(err)
		}
		expectErrorFrame(t, r, "unsupported protocol version 3")
		if _, err := s.Answer(q.ID, ups[0].Seq); err == nil {
			t.Fatal("a v3 bootstrap was applied")
		}
	})
	t.Run("router_upstream", func(t *testing.T) {
		// A v3 router's upstream reaching this shard is refused...
		ts := startServer(t, NewServer(testCatalog()))
		conn, _, r := rawClient(t, ts.Addr())
		if err := writePreamble(conn, v3, wire.FeatCluster); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.ReadPreamble(); err != nil {
			t.Fatal(err)
		}
		expectErrorFrame(t, r, "unsupported protocol version 3")
		// ...and a router's upstream refuses a v3 shard: DialWire is its dial.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			if c, err := ln.Accept(); err == nil {
				_ = writePreamble(c, v3, wire.FeatCluster)
				defer c.Close()
				var buf [64]byte
				_, _ = c.Read(buf[:])
			}
		}()
		_, _, _, _, err = DialWire(ln.Addr().String(), "", wire.FeatCluster, 0, 0)
		var ve *wire.VersionError
		if !errors.As(err, &ve) || ve.Got != v3 {
			t.Fatalf("dialing a v3 shard: %v, want a version error", err)
		}
	})
	t.Run("udp", func(t *testing.T) {
		s, ts := newUDPPair(t, q)
		for i := range ups {
			ts.processDatagram(appendV3UpdateFrame(wire.AppendPreamble(nil, v3, 0), &ups[i]), netip.AddrPort{})
		}
		ts.eng.Quiesce()
		versionErrs, _ := s.Telemetry().Get("dkf_wire_errors_total", telemetry.L("kind", "version"))
		if bad := s.Streamz().Engine.DatagramsBad; bad != int64(len(ups)) || versionErrs != float64(len(ups)) {
			t.Fatalf("%d v3 datagrams: %d rejected, %v version errors", len(ups), bad, versionErrs)
		}
		if _, err := s.Answer(q.ID, ups[0].Seq); err == nil {
			t.Fatal("a v3 bootstrap was applied")
		}
	})
}
