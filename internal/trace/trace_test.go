package trace

import (
	"testing"
	"time"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/tcp"
)

// TestFormatGolden pins the exact rendering of every Format branch: the
// tcpdump-style TCP line (flags, seq ranges, ack, window, options, data
// length), the truncated-TCP fallback, heartbeats, and unknown protocols.
// Every case goes through a flight recorder at the default snap length, as
// failover-trace's input does, so the long segment reaches Format cut to
// 128 bytes and must still render its full length and its options. The
// trace output doubles as documentation of the wire protocol, so changes
// here should be deliberate.
func TestFormatGolden(t *testing.T) {
	client := ipv4.MustParseAddr("10.0.2.1")
	server := ipv4.MustParseAddr("10.0.1.1")
	tcpHdr := func(src, dst ipv4.Addr) ipv4.Header {
		return ipv4.Header{Protocol: ipv4.ProtoTCP, Src: src, Dst: dst}
	}

	cases := []struct {
		name    string
		hdr     ipv4.Header
		payload []byte
		want    string
	}{
		{
			name: "syn with mss",
			hdr:  tcpHdr(client, server),
			payload: tcp.Marshal(client, server, &tcp.Segment{
				SrcPort: 49152, DstPort: 80, Seq: 1000,
				Flags: tcp.FlagSYN, Window: 65535,
				Options: []tcp.Option{tcp.MSSOption(1460)},
			}),
			want: "10.0.2.1.49152 > 10.0.1.1.80: Flags [S], seq 1000, win 65535, mss 1460",
		},
		{
			name: "synack with mss and origdst",
			hdr:  tcpHdr(server, client),
			payload: tcp.Marshal(server, client, &tcp.Segment{
				SrcPort: 80, DstPort: 49152, Seq: 300, Ack: 1001,
				Flags: tcp.FlagSYN | tcp.FlagACK, Window: 8192,
				Options: []tcp.Option{tcp.MSSOption(1000), {Kind: tcp.OptOrigDst, Data: []byte{10, 0, 1, 1}}},
			}),
			want: "10.0.1.1.80 > 10.0.2.1.49152: Flags [S.], seq 300, ack 1001, win 8192, mss 1000, origdst 10.0.1.1",
		},
		{
			name: "data segment with seq range and length",
			hdr:  tcpHdr(client, server),
			payload: tcp.Marshal(client, server, &tcp.Segment{
				SrcPort: 49152, DstPort: 80, Seq: 1001, Ack: 301,
				Flags: tcp.FlagACK | tcp.FlagPSH, Window: 4096,
				Payload: []byte("hello"),
			}),
			want: "10.0.2.1.49152 > 10.0.1.1.80: Flags [P.], seq 1001:1006, ack 301, win 4096, length 5",
		},
		{
			name: "segment longer than the snap length, with options",
			hdr:  tcpHdr(server, client),
			payload: tcp.Marshal(server, client, &tcp.Segment{
				SrcPort: 80, DstPort: 49152, Seq: 301, Ack: 1006,
				Flags: tcp.FlagACK, Window: 8192,
				Options: []tcp.Option{tcp.MSSOption(1000), {Kind: tcp.OptOrigDst, Data: []byte{10, 0, 1, 1}}},
				Payload: make([]byte, 1000),
			}),
			want: "10.0.1.1.80 > 10.0.2.1.49152: Flags [.], seq 301:1301, ack 1006, win 8192, mss 1000, origdst 10.0.1.1, length 1000",
		},
		{
			name: "pure ack",
			hdr:  tcpHdr(client, server),
			payload: tcp.Marshal(client, server, &tcp.Segment{
				SrcPort: 49152, DstPort: 80, Seq: 1006, Ack: 301,
				Flags: tcp.FlagACK, Window: 4096,
			}),
			want: "10.0.2.1.49152 > 10.0.1.1.80: Flags [.], seq 1006, ack 301, win 4096",
		},
		{
			name: "rst without ack",
			hdr:  tcpHdr(server, client),
			payload: tcp.Marshal(server, client, &tcp.Segment{
				SrcPort: 80, DstPort: 49152, Seq: 301,
				Flags: tcp.FlagRST, Window: 0,
			}),
			want: "10.0.1.1.80 > 10.0.2.1.49152: Flags [R], seq 301, win 0",
		},
		{
			name: "fin ack",
			hdr:  tcpHdr(client, server),
			payload: tcp.Marshal(client, server, &tcp.Segment{
				SrcPort: 49152, DstPort: 80, Seq: 1006, Ack: 301,
				Flags: tcp.FlagFIN | tcp.FlagACK, Window: 4096,
			}),
			want: "10.0.2.1.49152 > 10.0.1.1.80: Flags [F.], seq 1006, ack 301, win 4096",
		},
		{
			name:    "truncated tcp",
			hdr:     tcpHdr(client, server),
			payload: make([]byte, 4),
			want:    "10.0.2.1 > 10.0.1.1: TCP <truncated>",
		},
		{
			name:    "heartbeat",
			hdr:     ipv4.Header{Protocol: ipv4.ProtoHeartbeat, Src: client, Dst: server},
			payload: nil,
			want:    "10.0.2.1 > 10.0.1.1: heartbeat",
		},
		{
			name:    "unknown protocol",
			hdr:     ipv4.Header{Protocol: 17, Src: client, Dst: server},
			payload: make([]byte, 8),
			want:    "10.0.2.1 > 10.0.1.1: proto 17, length 8",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := obs.NewRecorder(1, obs.DefaultSnapLen)
			rec.Record(1500*time.Microsecond, "client", "rx", c.hdr, c.payload)
			r := rec.Records()[0]
			if len(r.Payload) > obs.DefaultSnapLen {
				t.Fatalf("recorder kept %d payload bytes", len(r.Payload))
			}
			if got := Format(r); got != c.want {
				t.Errorf("Format mismatch\ngot:  %s\nwant: %s", got, c.want)
			}
			if got, want := Line(r), "    0.001500 client    rx "+c.want+"\n"; got != want {
				t.Errorf("Line mismatch\ngot:  %q\nwant: %q", got, want)
			}
		})
	}
}
