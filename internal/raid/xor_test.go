package raid

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestXorIntoMatchesBytewise checks xorInto against a plain byte loop
// on sub-slices at unaligned offsets, the way WriteRun slices parity
// out of a run buffer, and that a short source still panics.
func TestXorIntoMatchesBytewise(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	lengths := []int{4095, 4096}
	for n := 0; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, off := range []int{0, 1, 3, 7} {
			dstBuf := make([]byte, n+off+8)
			srcBuf := make([]byte, n+off+8)
			r.Read(dstBuf)
			r.Read(srcBuf)
			dst := dstBuf[off : off+n]
			src := srcBuf[(off+5)%8 : (off+5)%8+n]

			want := append([]byte(nil), dstBuf...)
			for i := range dst {
				want[off+i] ^= src[i]
			}
			xorInto(dst, src)
			if !bytes.Equal(dstBuf, want) {
				t.Fatalf("len %d off %d: xorInto differs from the byte loop", n, off)
			}
		}
	}

	for _, n := range []int{1, 9, 4096} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("len %d: xorInto with a shorter source did not panic", n)
				}
			}()
			xorInto(make([]byte, n), make([]byte, n-1))
		}()
	}
}
