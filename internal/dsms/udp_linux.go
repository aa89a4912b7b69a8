//go:build linux && (amd64 || arm64)

// Batched datagram I/O on Linux: the reader drains up to rxBatch messages
// with one recvmmsg and the batcher sends a sealed batch with one
// sendmmsg, both raw against the netpoller-registered fd through
// syscall.RawConn, so the reader still parks in the runtime poller on
// EAGAIN. The callback is a method value bound once: a closure built per
// call would allocate per batch (TestUDPLaneRxAllocFreeGRO gates it).
//
// The kernel moves batches, not datagrams. On send, each run of
// consecutive datagrams of one length (the last may be shorter) is one
// message with a UDP_SEGMENT control message naming that length, cut
// back into the same datagrams before the wire, or on loopback before a
// socket that did not ask for runs. The server's socket asks (UDP_GRO), so
// a run reaches the reader as one message with its segment size, and read
// cuts it there again: msg(i) and addr(i) name datagrams. A kernel that
// refuses a segmented message (no UDP_SEGMENT, no checksum offload, a
// segment above the MTU) turns segmentation off for that batcher.
//
// mmsghdr and udpCmsg match the 64-bit layouts of linux/amd64 and
// linux/arm64; the build tag keeps every other GOARCH on the portable
// path in udp_portable.go rather than guessing struct packing.
package dsms

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// rxBatch is how many messages one receive syscall drains.
const rxBatch = 32

const (
	udpSegment = 103 // UDP_SEGMENT at IPPROTO_UDP: send a run, cut at this size
	udpGRO     = 104 // UDP_GRO at IPPROTO_UDP: receive a run whole, with its size
	// A run stays inside the kernel's limits: UDP_MAX_SEGMENTS (64, the
	// least any kernel with UDP_SEGMENT has) and the largest IPv4 payload.
	gsoMaxSegs, gsoMaxBytes = 64, maxPayload
)

// mmsghdr mirrors struct mmsghdr from <sys/socket.h>.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// udpCmsg is one IPPROTO_UDP control message in CMSG_SPACE of its value,
// which starts val: a sent UDP_SEGMENT's uint16, a received UDP_GRO's int.
type udpCmsg struct {
	syscall.Cmsghdr
	val [8]byte
}

// mmsg is a message table and the raw recvmmsg or sendmmsg (trap) over
// its first count messages, with what the last call returned: the kernel
// reports an error only when it moved no message.
type mmsg struct {
	rc       syscall.RawConn
	trap     uintptr
	iovs     []syscall.Iovec
	hdrs     []mmsghdr
	call     func(fd uintptr) bool
	count, n int
	errno    syscall.Errno
}

// raw is the RawConn callback: one non-blocking call. Returning false on
// EAGAIN parks the goroutine in the netpoller until the socket is ready.
func (m *mmsg) raw(fd uintptr) bool {
	n, _, errno := syscall.Syscall6(m.trap, fd, uintptr(unsafe.Pointer(&m.hdrs[0])),
		uintptr(m.count), syscall.MSG_DONTWAIT, 0, 0)
	if errno == syscall.EAGAIN {
		return false
	}
	m.n, m.errno = int(n), errno
	return true
}

// recvBatch is the reader's batched receive state: batch message buffers,
// each as large as the largest run, and the iovec, sockaddr, control and
// msghdr tables describing them, laid out once. dgs are the last read's
// datagrams and from[i] the message dgs[i] came in; both grow to the
// most datagrams one read has cut, so the steady state allocates nothing.
type recvBatch struct {
	mmsg
	bufs  [][]byte
	names []syscall.RawSockaddrAny
	ctrl  []udpCmsg
	dgs   [][]byte
	from  []int
}

func newRecvBatch(conn *net.UDPConn, batch, maxDatagram int) (*recvBatch, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	// Best effort: a kernel without UDP_GRO hands over datagrams one by one.
	_ = rc.Control(func(fd uintptr) { _ = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1) })
	rx := &recvBatch{mmsg: mmsg{rc: rc, trap: syscall.SYS_RECVMMSG, count: batch},
		bufs: make([][]byte, batch), names: make([]syscall.RawSockaddrAny, batch), ctrl: make([]udpCmsg, batch)}
	rx.iovs, rx.hdrs, rx.call = make([]syscall.Iovec, batch), make([]mmsghdr, batch), rx.raw
	arena := make([]byte, batch*maxDatagram)
	for i := 0; i < batch; i++ {
		rx.bufs[i] = arena[i*maxDatagram : (i+1)*maxDatagram : (i+1)*maxDatagram]
		rx.iovs[i].Base = &rx.bufs[i][0]
		rx.iovs[i].SetLen(maxDatagram)
		h := &rx.hdrs[i].hdr
		h.Name, h.Control = (*byte)(unsafe.Pointer(&rx.names[i])), (*byte)(unsafe.Pointer(&rx.ctrl[i]))
		h.Iov, h.Iovlen = &rx.iovs[i], 1
	}
	return rx, nil
}

// read blocks until at least one datagram arrives and returns how many
// the batch drained, a run counting as its datagrams. msg(i)/addr(i) are
// valid until the next read.
func (rx *recvBatch) read() (int, error) {
	for i := range rx.hdrs {
		rx.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(rx.names[0]))
		rx.hdrs[i].hdr.Controllen = uint64(unsafe.Sizeof(rx.ctrl[0]))
	}
	if err := rx.rc.Read(rx.call); err != nil {
		return 0, err
	}
	if rx.errno != 0 {
		return 0, rx.errno
	}
	rx.dgs, rx.from = rx.dgs[:0], rx.from[:0]
	for i := 0; i < rx.n; i++ {
		m, c := rx.bufs[i][:rx.hdrs[i].len], &rx.ctrl[i]
		seg := len(m)
		// The socket asks for no other control message: UDP_GRO's is first.
		if rx.hdrs[i].hdr.Controllen >= syscall.SizeofCmsghdr+4 && c.Level == syscall.IPPROTO_UDP && c.Type == udpGRO {
			seg = int(*(*int32)(unsafe.Pointer(&c.val)))
		}
		for ; seg > 0 && len(m) > seg; m = m[seg:] {
			rx.dgs, rx.from = append(rx.dgs, m[:seg]), append(rx.from, i)
		}
		rx.dgs, rx.from = append(rx.dgs, m), append(rx.from, i)
	}
	return len(rx.dgs), nil
}

// msg returns the i-th drained datagram's bytes.
func (rx *recvBatch) msg(i int) []byte { return rx.dgs[i] }

// addr decodes the i-th datagram's peer address without allocating.
// Port bytes are read individually, so the conversion from network
// byte order is endianness-agnostic.
func (rx *recvBatch) addr(i int) netip.AddrPort {
	name := &rx.names[rx.from[i]]
	switch name.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(name))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(p[0])<<8|uint16(p[1]))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(name))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), uint16(p[0])<<8|uint16(p[1]))
	}
	return netip.AddrPort{}
}

// batchTx sends sealed datagrams on a connected socket, one sendmmsg per
// batch while the kernel takes whole batches. Datagram i is iovs[i];
// message k carries hdrs[k].Iovlen of them, with ctrl[k] as UDP_SEGMENT
// when more than one. gso is on until the kernel refuses a segmented one.
type batchTx struct {
	mmsg
	ctrl []udpCmsg
	gso  bool
}

func newBatchTx(conn *net.UDPConn) (*batchTx, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	tx := &batchTx{mmsg: mmsg{rc: rc, trap: sysSENDMMSG}}
	tx.call = tx.raw
	// A kernel before UDP_SEGMENT (4.18) ignores the control message and
	// sends a run as one datagram, so segment only where it knows the option.
	_ = rc.Control(func(fd uintptr) {
		_, err := syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment)
		tx.gso = err == nil
	})
	return tx, nil
}

// sendAll transmits every packet. The socket is connected, so the
// msghdrs carry no destination; the tables grow to the largest batch
// seen and are reused after that.
func (tx *batchTx) sendAll(pkts [][]byte) error {
	for len(tx.hdrs) < len(pkts) {
		tx.iovs, tx.hdrs, tx.ctrl = append(tx.iovs, syscall.Iovec{}), append(tx.hdrs, mmsghdr{}), append(tx.ctrl, udpCmsg{})
	}
	for i, p := range pkts {
		tx.iovs[i].Base = &p[0]
		tx.iovs[i].SetLen(len(p))
	}
	for off := 0; off < len(pkts); {
		tx.count = 0
		for i := off; i < len(pkts); tx.count++ {
			r, h := tx.run(pkts[i:]), &tx.hdrs[tx.count].hdr
			*h = syscall.Msghdr{Iov: &tx.iovs[i], Iovlen: uint64(r)}
			if c := &tx.ctrl[tx.count]; r > 1 {
				c.Cmsghdr = syscall.Cmsghdr{Len: syscall.SizeofCmsghdr + 2, Level: syscall.IPPROTO_UDP, Type: udpSegment}
				*(*uint16)(unsafe.Pointer(&c.val)) = uint16(len(pkts[i]))
				h.Control, h.Controllen = (*byte)(unsafe.Pointer(c)), uint64(unsafe.Sizeof(*c))
			}
			i += r
		}
		if err := tx.rc.Write(tx.call); err != nil {
			return err
		}
		if e := tx.errno; tx.hdrs[0].hdr.Iovlen > 1 && (e == syscall.EINVAL || e == syscall.EIO || e == syscall.ENOPROTOOPT) {
			tx.gso = false // refused: the same datagrams go again, one per message
			continue
		} else if e != 0 {
			return e
		}
		for _, m := range tx.hdrs[:tx.n] {
			off += int(m.hdr.Iovlen)
		}
	}
	return nil
}

// run returns how many of pkts' leading datagrams one message carries:
// with segmentation on, those of the first one's length and then at most
// one shorter, within the kernel's limits.
func (tx *batchTx) run(pkts [][]byte) int {
	seg, n, size := len(pkts[0]), 1, len(pkts[0])
	for ; tx.gso && n < len(pkts) && n < gsoMaxSegs && len(pkts[n-1]) == seg &&
		len(pkts[n]) <= seg && size+len(pkts[n]) <= gsoMaxBytes; n++ {
		size += len(pkts[n])
	}
	return n
}
