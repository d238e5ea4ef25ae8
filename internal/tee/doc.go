// Package tee simulates an ARM TrustZone-style trusted execution
// environment: an enclave with a hard memory ceiling, a secure/normal-world
// boundary crossed only through an encrypted channel, remote attestation,
// and metering of world switches and bytes transferred (the §VI overheads).
//
// The simulation enforces the two properties Pelta relies on:
//
//  1. Confidentiality — objects stored in the enclave can only be read back
//     by the holder of the owner token issued at enclave creation. The
//     attacker-facing API in internal/core never receives this token.
//  2. Bounded memory — Store fails with ErrEnclaveFull once the configured
//     ceiling (30 MB by default, the TrustZone budget cited in the paper)
//     would be exceeded.
//
// A Store is one crossing. The normal world encodes the tensor into a
// plaintext buffer owned by the channel, seals it with AES-GCM under a
// fresh random nonce into a reused ciphertext buffer, and zeroes the
// plaintext at once. The enclave opens the ciphertext in place, decodes it
// straight into the stored tensor, and zeroes the opened bytes. The decoder
// treats the payload as untrusted: a bad rank, a negative dimension or an
// element count that overflows or disagrees with the length is rejected
// with ErrMalformedPayload before anything is allocated.
//
// Flushed objects are scrubbed on release: Flush and FlushAll zero them and
// keep them on a free list private to the enclave, and later Stores and
// Accumulates of the same shape decode into them. FlushAll drops whatever
// the previous pass left unclaimed, and recycled bytes plus Used never
// exceed Limit. Recycled tensors never leave the enclave: Load returns a
// copy.
//
// Side-channel attacks are out of scope, exactly as in the paper's threat
// model (§III).
//
// An Enclave is safe for sequential use by its owning shielded model;
// metering (world switches, bytes) is per-enclave and deterministic for a
// fixed query sequence.
package tee
