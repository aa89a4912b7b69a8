//go:build linux && (amd64 || arm64)

package dsms

import (
	"bytes"
	"net"
	"syscall"
	"testing"
	"time"

	"streamkf/internal/core"
)

// gsoBatch builds a batch of datagrams of the given sizes, each filled
// with bytes that name its position in the batch and its offset in the
// datagram, so a merge, a split in the wrong place or a reorder shows.
func gsoBatch(sizes ...int) [][]byte {
	pkts := make([][]byte, len(sizes))
	for i, n := range sizes {
		pkts[i] = make([]byte, n)
		for j := range pkts[i] {
			pkts[i][j] = byte(i*7 + j*13)
		}
	}
	return pkts
}

func repeat(n, size int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = size
	}
	return s
}

// gsoCases are batches that exercise every way a run forms and ends.
func gsoCases() map[string][][]byte {
	mid := repeat(16, 1210)
	mid[7], mid[15] = 1167, 700
	longer := append(append(repeat(5, 1210), 1300), repeat(5, 1210)...)
	return map[string][][]byte{
		"equal runs":              gsoBatch(repeat(16, 1210)...),
		"shorter mid-batch":       gsoBatch(mid...),
		"longer breaks a run":     gsoBatch(longer...),
		"more than 64 datagrams":  gsoBatch(repeat(150, 300)...),
		"a run at the 64 KB cap":  gsoBatch(repeat(20, gsoMaxBytes/13)...),
		"one datagram":            gsoBatch(900),
		"runs of one, all longer": gsoBatch(100, 200, 300, 400),
	}
}

// batchSender dials addr and returns a batchTx on it; noCheck sets
// SO_NO_CHECK, which makes the kernel refuse every segmented message.
func batchSender(t *testing.T, addr net.Addr, noCheck bool) *batchTx {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, addr.(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	tx, err := newBatchTx(conn)
	if err != nil {
		t.Fatal(err)
	}
	if noCheck {
		var serr error
		if err := tx.rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
		}); err != nil || serr != nil {
			t.Fatalf("SO_NO_CHECK: %v %v", err, serr)
		}
	}
	return tx
}

func listenUDP(t *testing.T) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadBuffer(udpReadBuffer)
	t.Cleanup(func() { conn.Close() })
	return conn
}

// laneRead reads from rx until want datagrams have arrived and returns
// copies of them and how many messages carried them.
func laneRead(t *testing.T, rx *recvBatch, want int) (got [][]byte, msgs int) {
	t.Helper()
	for len(got) < want {
		n, err := rx.read()
		if err != nil {
			t.Fatal(err)
		}
		msgs += rx.n
		for i := 0; i < n; i++ {
			if !rx.addr(i).IsValid() {
				t.Fatalf("datagram %d has no peer address", len(got))
			}
			got = append(got, append([]byte(nil), rx.msg(i)...))
		}
	}
	return got, msgs
}

func sameDatagrams(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("received %d datagrams, sent %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("datagram %d: received %d bytes, sent %d, or different bytes", i, len(got[i]), len(want[i]))
		}
	}
}

// TestUDPSegmentationKeepsDatagramBoundaries sends batches through
// batchTx and checks that the same datagrams, byte for byte and in
// order, come out of a reader that takes runs whole (UDP_GRO), out of a
// plain socket that the kernel hands them to one by one, and out of the
// reader again when the kernel refuses segmentation (SO_NO_CHECK) and the
// batcher falls back to one datagram per message.
func TestUDPSegmentationKeepsDatagramBoundaries(t *testing.T) {
	lane := listenUDP(t)
	rx, err := newRecvBatch(lane, 8, maxDatagram)
	if err != nil {
		t.Fatal(err)
	}
	plain := listenUDP(t)
	toLane, toPlain := batchSender(t, lane.LocalAddr(), false), batchSender(t, plain.LocalAddr(), false)
	refused := batchSender(t, lane.LocalAddr(), true)
	if !toLane.gso {
		t.Log("kernel without UDP_SEGMENT: every path sends one datagram per message")
	}
	buf := make([]byte, maxDatagram)
	for name, pkts := range gsoCases() {
		t.Run(name, func(t *testing.T) {
			_ = lane.SetReadDeadline(time.Now().Add(5 * time.Second))
			segmenting := toLane.gso
			if err := toLane.sendAll(pkts); err != nil {
				t.Fatal(err)
			}
			if segmenting && !toLane.gso {
				t.Fatal("the kernel refused a run inside its limits")
			}
			got, msgs := laneRead(t, rx, len(pkts))
			sameDatagrams(t, got, pkts)
			if segmenting && len(pkts) >= 16 && msgs >= len(pkts) {
				t.Fatalf("%d datagrams arrived as %d messages: nothing was coalesced", len(pkts), msgs)
			}

			if err := toPlain.sendAll(pkts); err != nil {
				t.Fatal(err)
			}
			got = got[:0]
			_ = plain.SetReadDeadline(time.Now().Add(5 * time.Second))
			for len(got) < len(pkts) {
				n, err := plain.Read(buf)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, append([]byte(nil), buf[:n]...))
			}
			sameDatagrams(t, got, pkts)

			if err := refused.sendAll(pkts); err != nil {
				t.Fatal(err)
			}
			got, msgs = laneRead(t, rx, len(pkts))
			sameDatagrams(t, got, pkts)
			if msgs != len(pkts) {
				t.Fatalf("without segmentation %d datagrams arrived as %d messages", len(pkts), msgs)
			}
		})
	}
	if refused.gso {
		t.Fatal("segmentation still on after the kernel refused it")
	}
}

// TestUDPLaneRxAllocFreeGRO extends TestUDPRxAllocFree to the socket
// half: a batch sent as one segmented message, read whole by the reader,
// split at its segment size and routed datagram by datagram, allocates
// nothing in the steady state.
func TestUDPLaneRxAllocFreeGRO(t *testing.T) {
	_, ts := newSourcesServer(t, 1)
	tx := batchSender(t, ts.Addr(), false)
	if !tx.gso {
		t.Skip("kernel without UDP_SEGMENT")
	}
	boot := core.Update{SourceID: srcQuery(0).SourceID, Seq: 0, Time: 0, Values: []float64{1}, Bootstrap: true}
	dg := updateDatagram(t, &boot)
	pkts := [][]byte{dg, dg, dg, dg}
	msgs := 0
	_ = ts.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	step := func() {
		if err := tx.sendAll(pkts); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < len(pkts); {
			n, err := ts.rx.read()
			if err != nil {
				t.Fatal(err)
			}
			msgs += ts.rx.n
			ts.batch.Observe(int64(n))
			for i := 0; i < n; i++ {
				ts.processDatagram(ts.rx.msg(i), ts.rx.addr(i))
			}
			got += n
		}
	}
	// Warm several ring wraps first, as TestUDPRxAllocFree does.
	for wrap := 0; wrap < 4; wrap++ {
		for i := 0; i < 2048/len(pkts); i++ {
			step()
		}
		ts.eng.Quiesce()
	}
	if sent := 4 * 2048; msgs >= sent {
		t.Fatalf("%d datagrams arrived as %d messages: the split path never ran", sent, msgs)
	}
	n := testing.AllocsPerRun(200, step)
	ts.eng.Quiesce()
	if n != 0 {
		t.Fatalf("rx path with GRO allocates %v/batch, want 0", n)
	}
}
