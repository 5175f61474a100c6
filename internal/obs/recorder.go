package obs

import (
	"time"

	"tcpfailover/internal/ipv4"
)

// Record directions.
const (
	DirRx = uint8(0)
	DirTx = uint8(1)
)

// Record is one captured datagram: the IPv4 header plus a snapshot of the
// transport payload. Payload aliases the recorder's slot storage — it is
// valid until the slot is overwritten (capacity records later).
type Record struct {
	Time    time.Duration // virtual capture time
	Host    string        // capturing host's name
	Dir     uint8         // DirRx or DirTx, from the host's viewpoint
	Hdr     ipv4.Header
	Len     int    // original transport payload length
	Payload []byte // first min(Len, snap) bytes, copied
}

// Recorder is the flight recorder: a bounded ring of packet records. Slots
// are preallocated and payload storage is reused, so steady-state capture
// costs one bounded copy per datagram and no allocation once every slot's
// buffer has reached the snap length. Like the registry it belongs to one
// single-threaded simulation.
type Recorder struct {
	slots []Record
	snap  int
	total uint64 // records ever written; ring position = total % len(slots)
	sink  func(Record)
}

// DefaultSnapLen bounds the payload bytes kept per record. 128 bytes cover
// every TCP header this simulation produces (options included) plus the
// leading payload — enough for readable trace lines and pcaps without
// letting bulk transfers blow up the ring's memory.
const DefaultSnapLen = 128

// NewRecorder creates a ring of capacity records, keeping up to snapLen
// payload bytes per record (0 means DefaultSnapLen).
func NewRecorder(capacity, snapLen int) *Recorder {
	if capacity <= 0 {
		capacity = 1024
	}
	if snapLen <= 0 {
		snapLen = DefaultSnapLen
	}
	return &Recorder{slots: make([]Record, capacity), snap: snapLen}
}

// SetSink has every record handed to f as it is captured, before the call
// that captured it returns — the live view of what the ring retains
// (failover-trace prints its text lines from it). The record's Payload
// aliases slot storage and is valid for the duration of the call.
func (r *Recorder) SetSink(f func(Record)) { r.sink = f }

// Record captures one datagram. dir is the tap's "rx"/"tx" string.
func (r *Recorder) Record(now time.Duration, host, dir string, hdr ipv4.Header, payload []byte) {
	s := &r.slots[r.total%uint64(len(r.slots))]
	r.total++
	s.Time = now
	s.Host = host
	s.Dir = DirRx
	if dir == "tx" {
		s.Dir = DirTx
	}
	s.Hdr = hdr
	s.Len = len(payload)
	n := min(len(payload), r.snap)
	s.Payload = append(s.Payload[:0], payload[:n]...)
	if r.sink != nil {
		r.sink(*s)
	}
}

// Total returns the number of records ever written (may exceed capacity).
func (r *Recorder) Total() uint64 { return r.total }

// Len returns the number of records currently held.
func (r *Recorder) Len() int {
	if r.total < uint64(len(r.slots)) {
		return int(r.total)
	}
	return len(r.slots)
}

// Records returns the held records oldest-first. The returned slice is
// freshly built but the Payload fields alias slot storage: the view is
// valid until the next Record call.
func (r *Recorder) Records() []Record {
	n := r.Len()
	out := make([]Record, 0, n)
	start := r.total - uint64(n)
	for i := range uint64(n) {
		out = append(out, r.slots[(start+i)%uint64(len(r.slots))])
	}
	return out
}
