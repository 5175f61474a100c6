package core

import "tcpfailover/internal/tcp"

// oracleQueue is what one of the primary bridge's output queues (Figure 2's
// "primary server output queue" and "secondary server output queue") must
// hold, written to be checked by eye: the bytes of the server-to-client
// stream by sequence number, and a floor below which nothing is kept.
type oracleQueue struct {
	floor tcp.Seq
	bytes map[tcp.Seq]byte
}

func newOracleQueue(floor tcp.Seq) *oracleQueue {
	return &oracleQueue{floor: floor, bytes: make(map[tcp.Seq]byte, queueSpan)}
}

// Insert stores payload at seq. Bytes below the floor are dropped, and a
// byte already held keeps its first copy.
func (q *oracleQueue) Insert(seq tcp.Seq, payload []byte) {
	for i, b := range payload {
		s := seq.Add(i)
		if _, held := q.bytes[s]; !held && s.Geq(q.floor) {
			q.bytes[s] = b
		}
	}
}

// Advance raises the floor by n bytes, forgetting everything below it.
func (q *oracleQueue) Advance(n int) {
	for range n {
		delete(q.bytes, q.floor)
		q.floor = q.floor.Add(1)
	}
}

// Len returns the number of bytes held.
func (q *oracleQueue) Len() int { return len(q.bytes) }

// Floor returns the lowest sequence number of interest.
func (q *oracleQueue) Floor() tcp.Seq { return q.floor }

// Contiguous returns the bytes held from the floor up to the first gap.
func (q *oracleQueue) Contiguous() []byte {
	var out []byte
	for s := q.floor; ; s = s.Add(1) {
		b, ok := q.bytes[s]
		if !ok {
			return out
		}
		out = append(out, b)
	}
}
