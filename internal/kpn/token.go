// Package kpn implements the real-time dataflow process-network runtime
// the paper's framework operates on: determinate Kahn-style process
// networks with bounded FIFO channels, blocking read/write semantics,
// and <period, jitter, delay> timing at the producer/consumer interfaces
// (Section 2 of the paper).
//
// Networks are described as graphs (Network) and instantiated onto a
// discrete-event kernel (package des). WithTransfer wraps a write port
// so that writes pay the SCC platform model's (package scc) realistic
// message-passing latency; the duplication transform (package ft)
// places processes on cores with it.
package kpn

import (
	"hash/fnv"

	"ftpn/internal/des"
)

// Token is one unit of data flowing through a channel. Seq is the
// monotonically increasing sequence number within its stream (the j of
// the paper's T_k[j]); Stamp is the virtual time the token was produced
// (the paper's t(k, j)). Payload carries the actual application data.
type Token struct {
	Seq     int64
	Stamp   des.Time
	Payload []byte

	// memo is the PayloadMemo entry Payload was taken from, if any; it
	// lets Hash return the entry's cached digest.
	memo *memoEntry
}

// Hash returns an FNV-1a digest of the payload, used by equivalence
// checks to compare token values cheaply. A token built from a
// PayloadMemo entry returns the entry's cached digest, but only while
// Payload is still the entry's own slice (same length, same first
// element): a reassigned payload — fault.Corrupt's corrupted copy, a
// subslice, an empty slice — is hashed from its bytes, so a stale digest
// can never hide a value fault.
func (t Token) Hash() uint64 {
	if e := t.ownEntry(); e != nil {
		return e.digest()
	}
	return hashBytes(t.Payload)
}

// ownEntry returns the token's memo entry while Payload is still that
// entry's own slice, and nil otherwise.
func (t Token) ownEntry() *memoEntry {
	if e := t.memo; e != nil && len(t.Payload) > 0 && len(t.Payload) == len(e.payload) && &t.Payload[0] == &e.payload[0] {
		return e
	}
	return nil
}

// hashBytes returns the FNV-1a digest of b.
func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b) //nolint:errcheck // hash.Hash never errors
	return h.Sum64()
}

// Size returns the payload size in bytes.
func (t Token) Size() int { return len(t.Payload) }

// ReadPort is the reader side of a channel: a destructive, blocking read
// (Section 2: "a process attempting to read tokens from an empty input
// FIFO queue will block").
type ReadPort interface {
	// TryRead removes and returns a token if the read can complete now
	// (ok). Otherwise it returns the wait that stands where today's
	// blocking read would block or delay; the caller waits it out and
	// retries, and the retry continues from that point.
	TryRead() (tok Token, w des.Wait, ok bool)
	// Read blocks the calling process until a token is available, then
	// removes and returns it: TryRead retried through ReadBlocking.
	Read(p *des.Proc) Token
	// PortName identifies the port for diagnostics and topology dumps.
	PortName() string
}

// WritePort is the writer side of a channel: a blocking write ("a
// process attempting to write tokens to a full output FIFO queue will
// block").
type WritePort interface {
	// TryWrite enqueues tok if the write can complete now (ok), and
	// otherwise returns the wait to retry after, as TryRead does. A
	// retry passes the same token.
	TryWrite(tok Token) (w des.Wait, ok bool)
	// Write blocks the calling process until the channel can accept the
	// token, then enqueues it: TryWrite retried through WriteBlocking.
	Write(p *des.Proc, tok Token)
	PortName() string
}

// ReadBlocking is the blocking read of every port: it retries try, the
// port's TryRead, suspending p on each wait, until a token arrives.
func ReadBlocking(p *des.Proc, try func() (Token, des.Wait, bool)) Token {
	for {
		tok, w, ok := try()
		if ok {
			return tok
		}
		p.Await(w)
	}
}

// WriteBlocking is the blocking write of every port: it retries try, the
// port's TryWrite, suspending p on each wait, until tok is taken.
func WriteBlocking(p *des.Proc, try func(Token) (des.Wait, bool), tok Token) {
	for {
		w, ok := try(tok)
		if ok {
			return
		}
		p.Await(w)
	}
}
