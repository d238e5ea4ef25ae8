package tee

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"pelta/internal/tensor"
)

// ErrMalformedPayload reports a boundary payload the enclave-side decoder
// refuses: truncated, of an unsupported rank, with a dimension that is
// negative as an int32, or whose element count overflows or disagrees with
// the payload length. The decoder rejects it before allocating anything.
var ErrMalformedPayload = errors.New("tee: malformed tensor payload")

// maxRank bounds the rank of a tensor crossing the boundary; the models
// never go past 4-D activations.
const maxRank = 8

// secureChannel is the AES-GCM channel carrying payloads across the
// normal/secure world boundary. Establishing it models the key exchange a
// real TrustZone deployment performs after attestation.
//
// The channel owns the two buffers of a crossing and reuses them: plain is
// the normal-world encoding, zeroed as soon as it is sealed; sealed holds
// nonce ‖ ciphertext ‖ tag, is opened in place inside the enclave and is
// zeroed once the payload is decoded. Callers serialize crossings (the
// enclave holds its mutex).
type secureChannel struct {
	aead   cipher.AEAD
	plain  []byte
	sealed []byte
	// dims is the decoder's shape scratch; a decoded shape aliases it
	// until the next crossing.
	dims [maxRank]int
	// keepPlaintext disables the zeroing of both buffers and of flushed
	// enclave objects. Tests set it to show that the confidentiality
	// checks notice plaintext left behind.
	keepPlaintext bool
}

func newSecureChannel() (*secureChannel, error) {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("generating channel key: %w", err)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("creating cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("creating GCM: %w", err)
	}
	return &secureChannel{aead: aead}, nil
}

// seal is the normal-world half of a crossing: it encodes t into the
// plaintext buffer, seals that into the sealed buffer under a fresh random
// nonce, and zeroes the plaintext.
func (c *secureChannel) seal(t *tensor.Tensor) error {
	c.plain = encodeTensor(c.plain, t)
	ns := c.aead.NonceSize()
	if need := ns + len(c.plain) + c.aead.Overhead(); cap(c.sealed) < need {
		c.sealed = make([]byte, ns, need)
	}
	c.sealed = c.sealed[:ns]
	_, err := rand.Read(c.sealed)
	if err == nil {
		c.sealed = c.aead.Seal(c.sealed, c.sealed, c.plain, nil)
	}
	if !c.keepPlaintext {
		clear(c.plain)
	}
	if err != nil {
		return fmt.Errorf("generating nonce: %w", err)
	}
	return nil
}

// open is the enclave half: it authenticates and decrypts the sealed
// buffer in place and returns the payload, which aliases the buffer until
// the caller has decoded it and called wipe.
func (c *secureChannel) open() ([]byte, error) {
	ns := c.aead.NonceSize()
	if len(c.sealed) < ns {
		return nil, errors.New("sealed payload too short")
	}
	nonce, ct := c.sealed[:ns], c.sealed[ns:]
	pt, err := c.aead.Open(ct[:0], nonce, ct, nil)
	if err != nil {
		c.wipe()
		return nil, err
	}
	return pt, nil
}

// wipe zeroes the sealed buffer, and with it the payload opened in place.
func (c *secureChannel) wipe() {
	if !c.keepPlaintext {
		clear(c.sealed)
	}
}

// encodeTensor serializes shape + payload as little-endian bytes into
// buf's storage, growing it when too small, and returns the encoding.
func encodeTensor(buf []byte, t *tensor.Tensor) []byte {
	shape := t.Shape()
	n := 4 + 4*len(shape) + 4*t.Len()
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	binary.LittleEndian.PutUint32(buf, uint32(len(shape)))
	off := 4
	for _, d := range shape {
		binary.LittleEndian.PutUint32(buf[off:], uint32(d))
		off += 4
	}
	for _, v := range t.Data() {
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
		off += 4
	}
	return buf
}

// decodeHeader validates an encoded tensor and splits it into its shape
// (written into dims) and element payload. Every check runs before the
// caller allocates: the rank is capped at maxRank, each dimension must be
// a non-negative int32, and the element count is bounded by the payload
// length as it is multiplied, so it can never overflow.
func decodeHeader(buf []byte, dims *[maxRank]int) (shape []int, payload []byte, err error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("%w: %d bytes, shorter than the rank field", ErrMalformedPayload, len(buf))
	}
	rank := binary.LittleEndian.Uint32(buf)
	if rank > maxRank {
		return nil, nil, fmt.Errorf("%w: rank %d exceeds %d", ErrMalformedPayload, rank, maxRank)
	}
	off := 4 + 4*int(rank)
	if len(buf) < off {
		return nil, nil, fmt.Errorf("%w: %d bytes truncate a rank-%d shape", ErrMalformedPayload, len(buf), rank)
	}
	limit := (len(buf) - off) / 4
	shape = dims[:rank]
	n := 1
	for i := range shape {
		d := int32(binary.LittleEndian.Uint32(buf[4+4*i:]))
		if d < 0 {
			return nil, nil, fmt.Errorf("%w: dimension %d is negative (%d)", ErrMalformedPayload, i, d)
		}
		shape[i] = int(d)
		if d != 0 && n > limit/int(d) {
			// n·d exceeds the elements the payload can hold.
			n = limit + 1
			continue
		}
		n *= int(d)
	}
	if n > limit || len(buf) != off+4*n {
		return nil, nil, fmt.Errorf("%w: %d bytes do not match shape %v", ErrMalformedPayload, len(buf), shape)
	}
	return shape, buf[off:], nil
}

// decodeInto fills dst from a payload validated by decodeHeader.
func decodeInto(dst []float32, payload []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
}
