package obs

import (
	"bytes"
	"testing"
	"time"

	"tcpfailover/internal/ipv4"
)

func testHdr(id uint16, proto uint8) ipv4.Header {
	return ipv4.Header{
		ID:       id,
		TTL:      64,
		Protocol: proto,
		Src:      ipv4.AddrFrom4(10, 0, 0, 1),
		Dst:      ipv4.AddrFrom4(10, 0, 1, 2),
	}
}

func fillRecorder(rec *Recorder, n int) {
	payload := make([]byte, 40)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < n; i++ {
		dir := "rx"
		if i%2 == 1 {
			dir = "tx"
		}
		rec.Record(time.Duration(i)*time.Millisecond, "client", dir, testHdr(uint16(i), 6), payload)
	}
}

func TestRecorderRingWrap(t *testing.T) {
	rec := NewRecorder(4, 0)
	fillRecorder(rec, 10)
	if rec.Total() != 10 {
		t.Fatalf("Total = %d, want 10", rec.Total())
	}
	if rec.Len() != 4 {
		t.Fatalf("Len = %d, want 4", rec.Len())
	}
	recs := rec.Records()
	// Oldest surviving record is #6.
	for i, r := range recs {
		if want := uint16(6 + i); r.Hdr.ID != want {
			t.Fatalf("record %d has ID %d, want %d", i, r.Hdr.ID, want)
		}
		if want := time.Duration(6+i) * time.Millisecond; r.Time != want {
			t.Fatalf("record %d time %v, want %v", i, r.Time, want)
		}
	}
	if recs[0].Dir != DirRx || recs[1].Dir != DirTx {
		t.Fatalf("directions %d,%d want rx,tx", recs[0].Dir, recs[1].Dir)
	}
}

// The sink sees every record as captured — all of them, in order, snapped —
// even when the ring retains only the last.
func TestRecorderSink(t *testing.T) {
	rec := NewRecorder(1, 16)
	var ids []uint16
	rec.SetSink(func(r Record) {
		if r.Len != 40 || len(r.Payload) != 16 {
			t.Errorf("sink record %d: Len %d, %d payload bytes; want 40, 16", r.Hdr.ID, r.Len, len(r.Payload))
		}
		ids = append(ids, r.Hdr.ID)
	})
	fillRecorder(rec, 5)
	if len(ids) != 5 || ids[0] != 0 || ids[4] != 4 || rec.Len() != 1 {
		t.Fatalf("sink saw %v, ring holds %d", ids, rec.Len())
	}
}

func TestRecorderSnapTruncation(t *testing.T) {
	rec := NewRecorder(8, 16)
	big := make([]byte, 100)
	rec.Record(0, "h", "rx", testHdr(1, 6), big)
	r := rec.Records()[0]
	if r.Len != 100 {
		t.Fatalf("Len = %d, want 100 (original length)", r.Len)
	}
	if len(r.Payload) != 16 {
		t.Fatalf("payload kept %d bytes, want 16 (snap)", len(r.Payload))
	}
}

func TestRecorderSteadyStateNoAlloc(t *testing.T) {
	rec := NewRecorder(64, 0)
	payload := make([]byte, DefaultSnapLen)
	hdr := testHdr(0, 6)
	// Warm the ring so every slot's payload buffer is at snap capacity.
	for i := 0; i < 128; i++ {
		rec.Record(0, "h", "rx", hdr, payload)
	}
	allocs := testing.AllocsPerRun(200, func() {
		rec.Record(0, "h", "tx", hdr, payload)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f objects/op after warmup, want 0", allocs)
	}
}

func TestPcapRoundTrip(t *testing.T) {
	rec := NewRecorder(16, 0)
	fillRecorder(rec, 5)
	var buf bytes.Buffer
	if err := WritePcap(&buf, rec.Records()); err != nil {
		t.Fatal(err)
	}
	n, err := VerifyPcap(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("VerifyPcap: %v", err)
	}
	if n != 5 {
		t.Fatalf("verified %d packets, want 5", n)
	}
}

func TestPcapTruncatedPayloadOrigLen(t *testing.T) {
	rec := NewRecorder(4, 32)
	big := make([]byte, 200)
	rec.Record(time.Second, "h", "tx", testHdr(9, 6), big)
	var buf bytes.Buffer
	if err := WritePcap(&buf, rec.Records()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[24:] // skip global header
	incl := uint32(b[8]) | uint32(b[9])<<8 | uint32(b[10])<<16 | uint32(b[11])<<24
	orig := uint32(b[12]) | uint32(b[13])<<8 | uint32(b[14])<<16 | uint32(b[15])<<24
	if incl != uint32(ipv4.HeaderLen+32) {
		t.Fatalf("incl_len = %d, want %d", incl, ipv4.HeaderLen+32)
	}
	if orig != uint32(ipv4.HeaderLen+200) {
		t.Fatalf("orig_len = %d, want %d", orig, ipv4.HeaderLen+200)
	}
	if _, err := VerifyPcap(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("VerifyPcap on truncated capture: %v", err)
	}
}

func TestVerifyPcapRejectsCorruption(t *testing.T) {
	rec := NewRecorder(4, 0)
	fillRecorder(rec, 2)
	var buf bytes.Buffer
	if err := WritePcap(&buf, rec.Records()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, err := VerifyPcap(bytes.NewReader(bad)); err == nil {
		t.Fatal("VerifyPcap accepted a bad magic number")
	}
	// Truncated mid-record.
	if _, err := VerifyPcap(bytes.NewReader(good[:len(good)-3])); err == nil {
		t.Fatal("VerifyPcap accepted a truncated stream")
	}
	// Corrupt the version field of an IP packet (first record's data).
	bad = append([]byte(nil), good...)
	bad[24+16] = 0x60 // version 6
	if _, err := VerifyPcap(bytes.NewReader(bad)); err == nil {
		t.Fatal("VerifyPcap accepted a non-IPv4 packet")
	}
}
