package tee

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"pelta/internal/tensor"
)

// decodeTensor decodes an encoded tensor the way Store does, into a fresh
// tensor instead of a recycled one.
func decodeTensor(buf []byte) (*tensor.Tensor, error) {
	var dims [maxRank]int
	shape, payload, err := decodeHeader(buf, &dims)
	if err != nil {
		return nil, err
	}
	t := tensor.New(shape...)
	decodeInto(t.Data(), payload)
	return t, nil
}

// header encodes a rank and raw dimension words with no element payload.
func header(rank uint32, dims ...uint32) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, rank)
	for _, d := range dims {
		buf = binary.LittleEndian.AppendUint32(buf, d)
	}
	return buf
}

// FuzzDecodeTensor feeds arbitrary bytes to the enclave-side decoder. It
// must either reject them with ErrMalformedPayload or return a tensor no
// larger than the payload that re-encodes to exactly the input.
func FuzzDecodeTensor(f *testing.F) {
	f.Add(encodeTensor(nil, tensor.NewRNG(1).Normal(0, 1, 2, 3)))
	f.Add(encodeTensor(nil, tensor.New(2, 0, 5)))
	f.Add([]byte{1, 2})
	f.Add(header(maxRank + 1))
	f.Add(header(1, 0xFFFFFFFF))
	f.Add(header(3, 0x7FFFFFFF, 0x7FFFFFFF, 0x7FFFFFFF))
	f.Fuzz(func(t *testing.T, buf []byte) {
		got, err := decodeTensor(buf)
		if err != nil {
			if !errors.Is(err, ErrMalformedPayload) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if got.Len() > len(buf)/4 {
			t.Fatalf("decoded %d elements from %d bytes", got.Len(), len(buf))
		}
		if re := encodeTensor(nil, got); !bytes.Equal(re, buf) {
			t.Fatalf("decoded shape %v does not re-encode to its payload", got.Shape())
		}
	})
}
