package apps

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"tcpfailover/internal/tcp"
)

// The online store from the paper's introduction: "Unless two customers
// compete for the last remaining item, each client will get a well-defined
// response to a browse or purchase request — independent of the fact that
// the server implementation uses an independent thread per client." The
// protocol is line-oriented:
//
//	BROWSE <item>        -> 200 <item> <price-cents> <stock> <desc> | 404 no such item
//	BUY <item> <qty>     -> 201 ORDER <id> <item> <qty> <total-cents> | 409 insufficient stock
//	LIST                 -> 200 <n items> followed by one line per item, then .
//	QUIT                 -> 221 bye (server closes)
//
// Order identifiers are deterministic per connection (the paper's
// per-connection determinism requirement), so both replicas emit identical
// bytes.

// StoreItem is one catalog entry.
type StoreItem struct {
	Name       string
	PriceCents int64
	Stock      int64
	Desc       string
}

// Catalog is the store inventory.
type Catalog map[string]*StoreItem

// DefaultCatalog returns a small deterministic catalog.
func DefaultCatalog() Catalog {
	items := []*StoreItem{
		{Name: "keyboard", PriceCents: 4999, Stock: 120, Desc: "mechanical keyboard"},
		{Name: "mouse", PriceCents: 1999, Stock: 300, Desc: "optical mouse"},
		{Name: "monitor", PriceCents: 24999, Stock: 40, Desc: "19-inch CRT"},
		{Name: "nic", PriceCents: 2999, Stock: 75, Desc: "100 Mbit/s Ethernet card"},
		{Name: "cable", PriceCents: 499, Stock: 1000, Desc: "cat-5 patch cable"},
	}
	c := make(Catalog, len(items))
	for _, it := range items {
		c[it.Name] = it
	}
	return c
}

// names returns catalog names in deterministic order.
func (c Catalog) names() []string {
	out := make([]string, 0, len(c))
	for n := range c {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// StoreServer is the replicated online store.
type StoreServer struct {
	catalog Catalog
	// Orders counts completed purchases (all connections).
	Orders int64
}

// NewStoreServer installs the store on port.
func NewStoreServer(stack *tcp.Stack, port uint16, catalog Catalog) (*StoreServer, error) {
	s := &StoreServer{catalog: catalog}
	_, err := stack.Listen(port, func(c *tcp.Conn) {
		sess := &storeSession{srv: s, conn: c, nextOrder: 1000}
		c.OnReadable(sess.onReadable)
		c.OnWritable(sess.flush)
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

type storeSession struct {
	srv       *StoreServer
	conn      *tcp.Conn
	lr        lineReader
	out       []byte
	nextOrder int64
	quitting  bool
}

func (s *storeSession) reply(line string) {
	s.out = append(s.out, line...)
	s.out = append(s.out, '\n')
	s.flush()
}

func (s *storeSession) flush() {
	for len(s.out) > 0 {
		n, err := s.conn.Write(s.out)
		if err != nil || n == 0 {
			return
		}
		s.out = s.out[n:]
	}
	if s.quitting {
		s.conn.Close()
	}
}

func (s *storeSession) onReadable() {
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

func (s *storeSession) command(line string) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return
	}
	switch strings.ToUpper(fields[0]) {
	case "LIST":
		names := s.srv.catalog.names()
		s.reply(fmt.Sprintf("200 %d items", len(names)))
		for _, n := range names {
			it := s.srv.catalog[n]
			s.reply(fmt.Sprintf("%s %d %d %s", it.Name, it.PriceCents, it.Stock, it.Desc))
		}
		s.reply(".")
	case "BROWSE":
		if len(fields) != 2 {
			s.reply("400 usage: BROWSE <item>")
			return
		}
		it, ok := s.srv.catalog[fields[1]]
		if !ok {
			s.reply("404 no such item")
			return
		}
		s.reply(fmt.Sprintf("200 %s %d %d %s", it.Name, it.PriceCents, it.Stock, it.Desc))
	case "BUY":
		if len(fields) != 3 {
			s.reply("400 usage: BUY <item> <qty>")
			return
		}
		qty, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil || qty <= 0 {
			s.reply("400 bad quantity")
			return
		}
		it, ok := s.srv.catalog[fields[1]]
		if !ok {
			s.reply("404 no such item")
			return
		}
		if it.Stock < qty {
			s.reply("409 insufficient stock")
			return
		}
		it.Stock -= qty
		id := s.nextOrder
		s.nextOrder++
		s.srv.Orders++
		s.reply(fmt.Sprintf("201 ORDER %d %s %d %d", id, it.Name, qty, qty*it.PriceCents))
	case "QUIT":
		s.reply("221 bye")
		s.quitting = true
		s.flush()
	default:
		s.reply("400 unknown command")
	}
}
