package des

import (
	"encoding/binary"
	"testing"
)

// FuzzEventQueueOrder feeds a byte-driven op stream (pushes with
// arbitrary deltas, pops, peeks) to the heap and the stable-sort oracle
// and requires identical dequeue order. Wired into the CI fuzz smoke
// alongside the detector interleaving fuzzers.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x00, 0x20, 0xFF, 0x01, 0x02, 0x03})
	f.Add([]byte{0x40, 0x00, 0x40, 0x00, 0x80, 0x80, 0x80})
	f.Add([]byte{0x20, 0xFF, 0xFF, 0xFF, 0x30, 0x00, 0x00, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &queueCheck{t: t}
		now := Time(0)
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			switch {
			case op < 0xC0: // push: a delta from the next bytes, shifted
				var raw uint64
				if len(data) >= 2 {
					raw = uint64(binary.LittleEndian.Uint16(data))
					data = data[2:]
				}
				at := now + Time(raw<<(uint(op&0x3F)%45))
				if at < now || at > 1<<62 { // clamp accumulated overflow
					at = 1 << 62
				}
				c.push(at)
			case op < 0xE0:
				if at, ok := c.pop(); ok {
					now = at
				}
			default:
				c.peek()
			}
		}
		c.drain()
	})
}
