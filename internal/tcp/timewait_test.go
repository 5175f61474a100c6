package tcp

import (
	"errors"
	"io"
	"runtime"
	"testing"
	"time"
	"unsafe"
	"weak"

	"tcpfailover/internal/obs"
)

// TestTimeWaitSegmentMatrix delivers one segment of each class to an
// endpoint in TIME-WAIT and asserts the reply (or silence), whether the
// endpoint survives it, and when it expires. The client closes first, so it
// lingers; the server has gone LAST-ACK → CLOSED, and everything the client
// sends afterwards is captured and dropped, so only the injected segments
// reach it. Survival is read from the wire alone: an ACK of data never sent
// draws an ACK from a lingering endpoint and an RST from a stack that has
// forgotten the tuple. Every segment, whatever its class, marks the span's
// first segment after the takeover.
func TestTimeWaitSegmentMatrix(t *testing.T) {
	const (
		silent  = Flags(0)
		far     = 100_000 // beyond the 65 535-byte receive window
		inside  = 100     // inside it
		restart = -1      // the segment restarts 2 MSL
		ends    = -2      // the segment ends TIME-WAIT at once
		keeps   = 0       // 2 MSL runs on from entry
	)
	type seg struct {
		flags    Flags
		seq, ack int // offsets from the endpoint's rcv.nxt and snd.nxt
		text     int // payload bytes
	}
	for _, tc := range []struct {
		name   string
		in     seg
		reply  Flags // silent, FlagACK or FlagRST|FlagACK; seq snd.nxt, ack rcv.nxt
		expiry int
	}{
		{"RST at rcv.nxt", seg{flags: FlagRST}, silent, ends},
		{"RST inside the window", seg{flags: FlagRST, seq: inside}, silent, ends},
		{"RST beyond the window", seg{flags: FlagRST, seq: far}, silent, keeps},
		{"SYN at rcv.nxt", seg{flags: FlagSYN}, FlagRST | FlagACK, ends},
		{"SYN inside the window", seg{flags: FlagSYN, seq: inside}, FlagRST | FlagACK, ends},
		{"SYN beyond the window", seg{flags: FlagSYN, seq: far}, silent, keeps},
		{"SYN below rcv.nxt", seg{flags: FlagSYN, seq: -inside}, silent, keeps},
		{"old ACK", seg{flags: FlagACK, ack: -1}, silent, keeps},
		{"current ACK", seg{flags: FlagACK}, silent, keeps},
		{"ACK of data never sent", seg{flags: FlagACK, ack: 1000}, FlagACK, keeps},
		{"old duplicate data", seg{flags: FlagACK, seq: -10, text: 10}, FlagACK, keeps},
		{"data beyond the window", seg{flags: FlagACK, seq: far, text: 10}, FlagACK, keeps},
		{"retransmitted FIN", seg{flags: FlagFIN | FlagACK, seq: -1}, FlagACK, restart},
		{"text at rcv.nxt", seg{flags: FlagACK, text: 10}, silent, keeps},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, Config{})
			c, s := p.connect(t, 80)
			s.OnReadable(func() {
				if _, err := s.Read(make([]byte, 16)); err == io.EOF {
					s.Close()
				}
			})
			var entered time.Duration
			c.OnClose(func(error) { entered = p.sched.Now() })
			c.Close()
			p.runUntil(t, func() bool { return s.State() == StateClosed }, time.Second)
			if entered == 0 || c.State() != StateTimeWait {
				t.Fatalf("set-up: client in %v, want TIME-WAIT", c.State())
			}
			var out [][]byte
			p.dropToB = func(b []byte) bool { out = append(out, append([]byte(nil), b...)); return true }
			spans := obs.NewSpanRecorder()
			p.a.AttachSpans(spans)
			spans.MarkTakeover(p.sched.Now())
			rcvNxt, sndNxt, key := c.rcvNxt, c.sndNxt, c.tuple.SpanKey()

			deliver := func(in seg) []byte {
				t.Helper()
				out = out[:0]
				b := Marshal(p.bAddr, p.aAddr, &Segment{SrcPort: 80, DstPort: c.tuple.LocalPort,
					Seq: rcvNxt.Add(in.seq), Ack: sndNxt.Add(in.ack), Flags: in.flags, Window: 4096,
					Payload: make([]byte, in.text)})
				SealChecksum(p.bAddr, p.aAddr, b)
				p.a.Input(p.bAddr, p.aAddr, b)
				switch len(out) {
				case 0:
					return nil
				case 1:
					return out[0]
				}
				t.Fatalf("%d replies to one segment, want at most one", len(out))
				return nil
			}
			// lingers reports whether the endpoint still answers for its tuple.
			lingers := func() bool {
				t.Helper()
				r := deliver(seg{flags: FlagACK, ack: 1000})
				switch {
				case r != nil && RawFlags(r) == FlagACK && RawSeq(r) == sndNxt && RawAck(r) == rcvNxt:
					return true
				case r != nil && RawFlags(r) == FlagRST:
					return false
				}
				t.Fatalf("probe answered with %v", r)
				return false
			}

			if err := p.sched.RunUntil(p.sched.Now() + time.Second); err != nil {
				t.Fatal(err)
			}
			at := p.sched.Now()
			r := deliver(tc.in)
			window := uint16(65535) // an RST advertises none
			if tc.reply.Has(FlagRST) {
				window = 0
			}
			switch {
			case tc.reply == silent && r != nil:
				t.Fatalf("answered with flags %v, want silence", RawFlags(r))
			case tc.reply != silent && (r == nil || RawFlags(r) != tc.reply || RawSeq(r) != sndNxt || RawAck(r) != rcvNxt ||
				RawWindow(r) != window || len(RawPayload(r)) != 0):
				t.Fatalf("answered with %v, want flags %v, seq %d, ack %d, window %d, no text", r, tc.reply, sndNxt, rcvNxt, window)
			}
			sp, _ := spans.Lookup(key)
			if when, ok := sp.Time(obs.SpanFirstAfterTakeover); !ok || when != at {
				t.Errorf("first segment after the takeover not marked at %v", at)
			}

			expiry := entered + timeWait
			switch tc.expiry {
			case ends:
				if lingers() {
					t.Fatal("the endpoint survived, want it gone")
				}
				return
			case restart:
				expiry = at + timeWait
			}
			if err := p.sched.RunUntil(expiry - 1); err != nil {
				t.Fatal(err)
			}
			if !lingers() {
				t.Fatalf("gone before %v", expiry)
			}
			if err := p.sched.RunUntil(expiry); err != nil {
				t.Fatal(err)
			}
			if lingers() {
				t.Fatalf("still lingering at %v, want it gone", expiry)
			}
		})
	}
}

// TestTimeWaitHeapGate: a connection that closed first lingers 2 MSL as a
// record of at most 64 bytes, and its Conn is garbage as soon as nothing
// else holds it. 256 clients close first, one after another, and drop
// their handles; each Conn must then be collected, while the stack still
// acknowledges each client's retransmitted FIN. The live heap the linger
// holds per connection is bounded by the record, its one pending timer
// event and its share of the record table; a Conn (320 bytes) kept
// reachable breaks the bound.
func TestTimeWaitHeapGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	if size := unsafe.Sizeof(timeWaitRecord{}); size > 64 {
		t.Errorf("timeWaitRecord is %d bytes, want at most 64", size)
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second empties the sync.Pool victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	p := newPair(t, Config{})
	if _, err := p.b.Listen(80, func(s *Conn) {
		s.OnReadable(func() {
			if _, err := s.Read(make([]byte, 16)); err == io.EOF {
				s.Close()
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	type linger struct {
		conn           weak.Pointer[Conn]
		tuple          Tuple
		sndNxt, rcvNxt Seq
	}
	// open runs one connection until its client lingers, and returns it.
	open := func() linger {
		c, err := p.a.Dial(p.bAddr, 80)
		if err != nil {
			t.Fatal(err)
		}
		c.OnEstablished(c.Close)
		p.runUntil(t, func() bool { return c.State() == StateTimeWait }, time.Second)
		return linger{weak.Make(c), c.tuple, c.sndNxt, c.rcvNxt}
	}
	open() // the first linger allocates the scheduler's far wheel level
	before := heap()
	const conns = 256
	lingers := make([]linger, conns)
	for i := range lingers {
		lingers[i] = open()
	}
	p.runUntil(t, func() bool { return p.sched.PendingEvents() == conns+1 }, time.Second)
	perConn := float64(heap()-before) / conns
	t.Logf("%.0f B of live heap per lingering connection", perConn)
	// The 64-byte record, its 144-byte timer event, and up to 48 B of the
	// record table (17 B a slot, at least 7/16 full): 243 B measured.
	if perConn > 256 {
		t.Errorf("%.0f B of live heap per lingering connection, want at most 256", perConn)
	}
	var out [][]byte
	p.dropToB = func(b []byte) bool { out = append(out, append([]byte(nil), b...)); return true }
	for i, l := range lingers {
		if l.conn.Value() != nil {
			t.Fatalf("connection %d: its Conn outlives its handle in TIME-WAIT", i)
		}
		out = out[:0]
		fin := Marshal(p.bAddr, p.aAddr, &Segment{SrcPort: 80, DstPort: l.tuple.LocalPort,
			Seq: l.rcvNxt.Add(-1), Ack: l.sndNxt, Flags: FlagFIN | FlagACK, Window: 4096})
		SealChecksum(p.bAddr, p.aAddr, fin)
		p.a.Input(p.bAddr, p.aAddr, fin)
		if len(out) != 1 || RawFlags(out[0]) != FlagACK || RawAck(out[0]) != l.rcvNxt {
			t.Fatalf("connection %d: a retransmitted FIN drew %d segments, want one ACK of %d", i, len(out), l.rcvNxt)
		}
	}
}

// TestDialSkipsTimeWait: a tuple lingering in TIME-WAIT is in use until 2
// MSL ends. DialFrom refuses it, and Dial's port allocator steps past it to
// the next port.
func TestDialSkipsTimeWait(t *testing.T) {
	p := newPair(t, Config{})
	c, s := p.connect(t, 80)
	s.OnReadable(func() {
		if _, err := s.Read(make([]byte, 16)); err == io.EOF {
			s.Close()
		}
	})
	c.Close()
	p.runUntil(t, func() bool { return s.State() == StateClosed }, time.Second)
	port := c.Tuple().LocalPort
	if _, err := p.a.DialFrom(port, p.bAddr, 80); !errors.Is(err, ErrPortInUse) {
		t.Errorf("DialFrom a lingering tuple: err %v, want ErrPortInUse", err)
	}
	p.a.nextPort = port
	if d, err := p.a.Dial(p.bAddr, 80); err != nil || d.Tuple().LocalPort != port+1 {
		t.Errorf("Dial from a lingering port: %v, %v; want port %d", d, err, port+1)
	}
	p.runUntil(t, func() bool { return !p.a.holds(c.Tuple()) }, timeWait)
	if _, err := p.a.DialFrom(port, p.bAddr, 80); err != nil {
		t.Errorf("DialFrom the tuple after 2 MSL: %v", err)
	}
}
