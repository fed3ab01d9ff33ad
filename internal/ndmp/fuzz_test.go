package ndmp

import (
	"bytes"
	"testing"
)

// FuzzDecodeHello throws arbitrary bytes at the Hello decoder — the
// first payload a tape host parses from an unauthenticated peer. The
// invariants: never panic, and every accepted payload re-encodes to
// the same bytes, so decoding admits exactly one encoding per Hello.
func FuzzDecodeHello(f *testing.F) {
	full := encodeHello(Hello{Version: Version, Kind: KindLogical, Session: 7, Stream: 1, Level: 2, FSID: "home0", Tenant: "acme"})
	f.Add(encodeHello(Hello{Version: Version, Kind: KindImage, Session: 1, Level: -1, FSID: "fs"}))
	f.Add(full)
	v2 := encodeHello(Hello{Version: 2, Kind: KindLogical, Session: 3, Level: 1, FSID: "home0"})
	f.Add(v2[:len(v2)-4])
	f.Add(full[:len(full)-1])
	f.Add(full[:helloFixed])
	f.Add(full[:5])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, p []byte) {
		h, err := decodeHello(p)
		if err != nil {
			return
		}
		if enc := encodeHello(h); !bytes.Equal(enc, p) {
			t.Fatalf("decoded %+v re-encodes as %x, want %x", h, enc, p)
		}
	})
}
