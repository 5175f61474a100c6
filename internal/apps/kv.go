package apps

import (
	"fmt"
	"io"
	"strings"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/tcp"
)

// A two-tier system for the paper's section 7.2: a *replicated* middle tier
// that accepts client requests and satisfies them from an *unreplicated*
// back-end key-value store T, to which the replicated servers open a
// server-initiated TCP connection through the bridge.
//
// Back-end protocol (line-oriented):
//
//	GET <key>          -> VAL <value> | NIL
//	PUT <key> <value>  -> OK
//
// Middle-tier protocol:
//
//	FETCH <key>        -> 200 <value> | 404
//	STORE <key> <val>  -> 201
//	QUIT               -> 221 (closes)

// KVDefaultPort is the back-end's well-known port.
const KVDefaultPort = 5432

// KVServer is the unreplicated back-end store.
type KVServer struct {
	Data map[string]string
	// Requests counts processed commands.
	Requests int64
}

// NewKVServer installs the back end on port.
func NewKVServer(stack *tcp.Stack, port uint16, seed map[string]string) (*KVServer, error) {
	s := &KVServer{Data: make(map[string]string, len(seed))}
	for k, v := range seed {
		s.Data[k] = v
	}
	_, err := stack.Listen(port, func(c *tcp.Conn) {
		var lr lineReader
		c.OnReadable(func() {
			for {
				buf := scratch(c)
				n, err := c.Read(buf)
				if n > 0 {
					for _, line := range lr.feed(buf[:n]) {
						s.Requests++
						fields := strings.Fields(line)
						switch {
						case len(fields) == 2 && strings.EqualFold(fields[0], "GET"):
							if v, ok := s.Data[fields[1]]; ok {
								_, _ = c.Write([]byte("VAL " + v + "\n"))
							} else {
								_, _ = c.Write([]byte("NIL\n"))
							}
						case len(fields) == 3 && strings.EqualFold(fields[0], "PUT"):
							s.Data[fields[1]] = fields[2]
							_, _ = c.Write([]byte("OK\n"))
						default:
							_, _ = c.Write([]byte("ERR\n"))
						}
					}
					continue
				}
				if err == io.EOF {
					c.Close()
				}
				return
			}
		})
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Frontend is the replicated middle tier. It opens one back-end connection
// per accepted client session — keeping each back-end byte stream driven by
// exactly one client connection, which is what makes the replicas'
// server-initiated streams byte-identical (the paper's per-connection
// determinism requirement, section 1).
type Frontend struct {
	stack  *tcp.Stack
	beAddr ipv4.Addr
	bePort uint16
	// BackendConns counts back-end connections opened.
	BackendConns int
}

// NewFrontend installs the middle tier: it listens on port for clients and
// dials the back end at beAddr:bePort once per client session.
func NewFrontend(stack *tcp.Stack, port uint16, beAddr ipv4.Addr, bePort uint16) (*Frontend, error) {
	f := &Frontend{stack: stack, beAddr: beAddr, bePort: bePort}
	_, err := stack.Listen(port, func(c *tcp.Conn) {
		be, err := stack.Dial(f.beAddr, f.bePort)
		if err != nil {
			c.Abort()
			return
		}
		f.BackendConns++
		sess := &feSession{conn: c, be: be}
		c.OnReadable(sess.onReadable)
		c.OnClose(func(error) { be.Close() })
		be.OnReadable(sess.onBackendReadable)
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

type feSession struct {
	conn *tcp.Conn
	be   *tcp.Conn
	lr   lineReader
	blr  lineReader
	// Replies go out strictly in command order: each command reserves a
	// slot, filled either immediately (local errors) or when the matching
	// back-end reply arrives. Waiters map back-end replies onto their
	// slots FIFO.
	slots    []*string
	waiters  []func(string)
	quitting bool
}

// ask forwards one back-end command and fills the command's reply slot
// when the back end answers.
func (s *feSession) ask(cmd string, transform func(string) string) {
	slot := s.reserve()
	s.waiters = append(s.waiters, func(resp string) {
		out := transform(resp)
		*slot = out
		s.flushSlots()
	})
	_, _ = s.be.Write([]byte(cmd + "\n"))
}

// reserve appends an unfilled reply slot.
func (s *feSession) reserve() *string {
	slot := new(string)
	s.slots = append(s.slots, slot)
	return slot
}

// flushSlots emits the filled prefix of the reply queue, in order.
func (s *feSession) flushSlots() {
	for len(s.slots) > 0 && *s.slots[0] != "" {
		_, _ = s.conn.Write([]byte(*s.slots[0] + "\n"))
		s.slots = s.slots[1:]
	}
	s.maybeQuit()
}

func (s *feSession) onBackendReadable() {
	for {
		buf := scratch(s.be)
		n, rerr := s.be.Read(buf)
		if n > 0 {
			for _, line := range s.blr.feed(buf[:n]) {
				if len(s.waiters) > 0 {
					cb := s.waiters[0]
					s.waiters = s.waiters[1:]
					cb(line)
				}
			}
			continue
		}
		if rerr == io.EOF {
			s.be.Close()
		}
		return
	}
}

func (s *feSession) onReadable() {
	for {
		buf := scratch(s.conn)
		n, err := s.conn.Read(buf)
		if n > 0 {
			for _, line := range s.lr.feed(buf[:n]) {
				s.command(line)
			}
			continue
		}
		if err == io.EOF {
			s.conn.Close()
		}
		return
	}
}

// reply answers a command synchronously, keeping command order.
func (s *feSession) reply(line string) {
	slot := s.reserve()
	*slot = line
	s.flushSlots()
}

func (s *feSession) maybeQuit() {
	if s.quitting && len(s.slots) == 0 {
		s.quitting = false
		_, _ = s.conn.Write([]byte("221\n"))
		s.conn.Close()
	}
}

func (s *feSession) command(line string) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return
	}
	switch {
	case len(fields) == 2 && strings.EqualFold(fields[0], "FETCH"):
		s.ask("GET "+fields[1], func(resp string) string {
			if v, ok := strings.CutPrefix(resp, "VAL "); ok {
				return "200 " + v
			}
			return "404"
		})
	case len(fields) == 3 && strings.EqualFold(fields[0], "STORE"):
		s.ask(fmt.Sprintf("PUT %s %s", fields[1], fields[2]), func(resp string) string {
			if resp == "OK" {
				return "201"
			}
			return "500"
		})
	case strings.EqualFold(fields[0], "QUIT"):
		// Answer only after all in-flight back-end replies have been
		// relayed, so responses reach the client in order.
		s.quitting = true
		s.maybeQuit()
	default:
		s.reply("400 unknown command")
	}
}
