package mjpeg

import "testing"

// FuzzDecode hardens the decoder against corrupt bitstreams: any input
// must yield a frame or an error, never a panic or out-of-bounds access.
func FuzzDecode(f *testing.F) {
	good, err := Encode(TestFrame(16, 16, 1), 50)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:len(good)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		if frame, err := Decode(data); err == nil {
			if frame.W*frame.H != len(frame.Pix) {
				t.Fatalf("inconsistent decoded frame %dx%d with %d pixels", frame.W, frame.H, len(frame.Pix))
			}
		}
	})
}
