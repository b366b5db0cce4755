package httpsim

import (
	"io"
	"net"

	"toplists/internal/faults"
)

// truncateAfter is how many response bytes a DialTruncate connection lets
// through before cutting off — enough for a partial status line, never a
// complete set of headers.
const truncateAfter = 24

// resetConn models an RST mid-exchange: the first read tears the pipe down
// and surfaces a reset. Closing the underlying conn unblocks the server
// side, whose pending pipe writes would otherwise stall forever.
type resetConn struct {
	net.Conn
}

func (c *resetConn) Read(p []byte) (int, error) {
	c.Conn.Close()
	return 0, faults.ErrReset
}

// truncConn models a response cut off mid-headers: it passes through a few
// bytes, then closes the pipe and reports EOF.
type truncConn struct {
	net.Conn
	remain int
}

func (c *truncConn) Read(p []byte) (int, error) {
	if c.remain <= 0 {
		c.Conn.Close()
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > c.remain {
		p = p[:c.remain]
	}
	n, err := c.Conn.Read(p)
	c.remain -= n
	return n, err
}
