package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
)

// The generator's own BGP-4 framing (RFC 4271). It is written here, not
// borrowed from the router's bgp package, so that the load the benchmark
// offers does not depend on the encoder under test; a self-test checks
// that every message it frames decodes through bgp.DecodeMessage.

const (
	msgOpen      = 1
	msgUpdate    = 2
	msgKeepalive = 4
	headerLen    = 19
	maxMsgLen    = 4096
)

// genRoute is one announcement as the generator sends it.
type genRoute struct {
	net     netip.Prefix
	origin  uint8
	asPath  []uint16 // one AS_SEQUENCE segment
	nextHop netip.Addr
	med     uint32
	hasMED  bool
}

func appendHeader(dst []byte, typ uint8) ([]byte, int) {
	start := len(dst)
	for i := 0; i < 16; i++ {
		dst = append(dst, 0xff)
	}
	return append(dst, 0, 0, typ), start
}

func patchLen(dst []byte, start int) {
	binary.BigEndian.PutUint16(dst[start+16:], uint16(len(dst)-start))
}

func appendOpen(dst []byte, as uint16, holdSecs uint16, id netip.Addr) []byte {
	dst, start := appendHeader(dst, msgOpen)
	dst = append(dst, 4)
	dst = binary.BigEndian.AppendUint16(dst, as)
	dst = binary.BigEndian.AppendUint16(dst, holdSecs)
	b := id.As4()
	dst = append(dst, b[:]...)
	dst = append(dst, 0) // no optional parameters
	patchLen(dst, start)
	return dst
}

func appendKeepalive(dst []byte) []byte {
	dst, start := appendHeader(dst, msgKeepalive)
	patchLen(dst, start)
	return dst
}

func appendPrefix(dst []byte, p netip.Prefix) []byte {
	a := p.Masked().Addr().As4()
	bits := p.Bits()
	return append(append(dst, byte(bits)), a[:(bits+7)/8]...)
}

// appendUpdate frames one UPDATE carrying withdrawn and the announcement
// of nlri under r's attributes (r is ignored when nlri is empty).
func appendUpdate(dst []byte, withdrawn []netip.Prefix, r *genRoute, nlri []netip.Prefix) []byte {
	dst, start := appendHeader(dst, msgUpdate)
	wOff := len(dst)
	dst = append(dst, 0, 0)
	for _, p := range withdrawn {
		dst = appendPrefix(dst, p)
	}
	binary.BigEndian.PutUint16(dst[wOff:], uint16(len(dst)-wOff-2))
	aOff := len(dst)
	dst = append(dst, 0, 0)
	if len(nlri) > 0 {
		dst = append(dst, 0x40, 1, 1, r.origin)
		dst = append(dst, 0x40, 2, byte(2+2*len(r.asPath)), 2, byte(len(r.asPath)))
		for _, as := range r.asPath {
			dst = binary.BigEndian.AppendUint16(dst, as)
		}
		nh := r.nextHop.As4()
		dst = append(append(dst, 0x40, 3, 4), nh[:]...)
		if r.hasMED {
			dst = binary.BigEndian.AppendUint32(append(dst, 0x80, 4, 4), r.med)
		}
	}
	binary.BigEndian.PutUint16(dst[aOff:], uint16(len(dst)-aOff-2))
	for _, p := range nlri {
		dst = appendPrefix(dst, p)
	}
	patchLen(dst, start)
	return dst
}

// readMsg reads one framed message into buf (grown as needed) and returns
// its type and the whole message, header included.
func readMsg(r *bufio.Reader, buf []byte) (uint8, []byte, error) {
	if cap(buf) < maxMsgLen {
		buf = make([]byte, maxMsgLen)
	}
	buf = buf[:headerLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint16(buf[16:]))
	if n < headerLen || n > maxMsgLen {
		return 0, nil, fmt.Errorf("perfbench: bad BGP message length %d", n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf[headerLen:]); err != nil {
		return 0, nil, err
	}
	return buf[18], buf, nil
}
