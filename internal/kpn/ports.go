package kpn

import (
	"ftpn/internal/des"
	"ftpn/internal/scc"
)

// transferPort wraps a WritePort so that every write first pays the
// SCC message-passing latency from the writer's core to the reader's
// core, modeling an iRCCE chunked MPB transfer.
type transferPort struct {
	inner    WritePort
	chip     *scc.Chip
	from, to *scc.Core
	// fallbackBytes is used when a token has no payload (timing-only
	// simulations where TokenBytes stands in for real data).
	fallbackBytes int
	// sent: the transfer of the token being written is paid, and the
	// write is at the inner port.
	sent bool
}

// WithTransfer wraps port so writes are delayed by the chip's transfer
// time for the token's payload size (or fallbackBytes for empty
// payloads) between the two cores.
func WithTransfer(port WritePort, chip *scc.Chip, from, to *scc.Core, fallbackBytes int) WritePort {
	return &transferPort{inner: port, chip: chip, from: from, to: to, fallbackBytes: fallbackBytes}
}

// TryWrite implements WritePort: a write first waits out the transfer
// time (even a zero one, which yields), then writes to the inner port.
func (t *transferPort) TryWrite(tok Token) (des.Wait, bool) {
	if !t.sent {
		t.sent = true
		return des.For(t.chip.TransferTime(t.from, t.to, transferBytes(tok, t.fallbackBytes))), false
	}
	w, ok := t.inner.TryWrite(tok)
	t.sent = !ok
	return w, ok
}

// Write implements WritePort.
func (t *transferPort) Write(p *des.Proc, tok Token) { WriteBlocking(p, t.TryWrite, tok) }

// PortName implements WritePort.
func (t *transferPort) PortName() string { return t.inner.PortName() }

// transferBytes is the size a transfer of tok is charged for.
func transferBytes(tok Token, fallback int) int {
	if bytes := tok.Size(); bytes != 0 {
		return bytes
	}
	return fallback
}

// readTransferPort wraps a ReadPort so every read pays the transfer
// latency of moving the token from the channel's host core to the
// reader's core (used when a channel such as a replicator is hosted on
// reliable hardware away from the reading replica).
type readTransferPort struct {
	inner         ReadPort
	chip          *scc.Chip
	from, to      *scc.Core
	fallbackBytes int
	// held is the token read from the inner port while its transfer
	// time passes.
	held    Token
	holding bool
}

// WithReadTransfer wraps port so reads are delayed by the chip's
// transfer time for the token's payload size between the two cores.
func WithReadTransfer(port ReadPort, chip *scc.Chip, from, to *scc.Core, fallbackBytes int) ReadPort {
	return &readTransferPort{inner: port, chip: chip, from: from, to: to, fallbackBytes: fallbackBytes}
}

// TryRead implements ReadPort: a read takes the token from the inner
// port, then waits out its transfer time (even a zero one) before
// handing it on.
func (t *readTransferPort) TryRead() (Token, des.Wait, bool) {
	if t.holding {
		tok := t.held
		t.held, t.holding = Token{}, false
		return tok, des.Wait{}, true
	}
	tok, w, ok := t.inner.TryRead()
	if !ok {
		return Token{}, w, false
	}
	t.held, t.holding = tok, true
	return Token{}, des.For(t.chip.TransferTime(t.from, t.to, transferBytes(tok, t.fallbackBytes))), false
}

// Read implements ReadPort.
func (t *readTransferPort) Read(p *des.Proc) Token { return ReadBlocking(p, t.TryRead) }

// PortName implements ReadPort.
func (t *readTransferPort) PortName() string { return t.inner.PortName() }
