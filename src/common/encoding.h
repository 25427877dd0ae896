// Bit-size accounting for broadcast messages.
//
// The BCC/BC models bound each per-round message to B = Θ(log n) bits, so
// round costs of broadcasting weights, vector entries, and IDs depend on
// their bit width. These helpers centralize that arithmetic; the network
// simulator and the round accountant both use them.
#pragma once

#include <cstdint>
#include <cstddef>

namespace bcclap::enc {

// Number of bits needed to represent v (0 -> 1 bit).
int bit_width_u64(std::uint64_t v);

// Bits to encode a signed integer (sign bit + magnitude).
int bit_width_i64(std::int64_t v);

// Bits needed to represent an ID in [0, n).
int id_bits(std::size_t n);

// Bits to encode a real value with absolute values up to `max_abs` at
// relative precision `eps`: sign + integer part + log(1/eps) fraction bits.
int real_bits(double max_abs, double eps);

// An exact, order-preserving 64-bit key of a finite double: a < b iff
// order_key(a) < order_key(b), with -0.0 keyed just below +0.0.
// from_order_key inverts it bit for bit. Broadcasting the key sends the
// value itself, at 64 bits.
std::uint64_t order_key(double x);
double from_order_key(std::uint64_t key);

// Rounds needed to broadcast a payload of `bits` bits with bandwidth B.
std::int64_t rounds_for_bits(std::int64_t bits, std::int64_t bandwidth);

}  // namespace bcclap::enc
