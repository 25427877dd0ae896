// A broadcast message: a sequence of bit-sized fields.
//
// Both models bound the per-round message to B = Theta(log n) bits. We keep
// messages structured (fields with explicit widths) rather than raw bits so
// algorithm code stays readable, and let the network charge
// ceil(total_bits / B) rounds for a logical message that exceeds B — this is
// exactly how the paper accounts for the (1 + log W / log n) factors in
// Lemma 3.2.
//
// A Message is a fixed-capacity, trivially copyable value: up to
// kMaxFields fields live inline (every protocol message in the library has
// at most four) and the total width is summed as fields are pushed. A
// message owns no heap memory, so copying one is a plain byte copy.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace bcclap::bcc {

class Message {
 public:
  static constexpr std::size_t kMaxFields = 6;

  Message() = default;

  // Appends a `bits`-wide field holding `value`. Throws
  // std::invalid_argument unless 1 <= bits <= 64 and value < 2^bits (a
  // field that does not fit would under-charge rounds), and
  // std::length_error when the message already holds kMaxFields fields.
  Message& push(std::uint64_t value, int bits);
  // Convenience: a field holding an ID in [0, n).
  Message& push_id(std::size_t id, std::size_t n);
  // A single flag bit.
  Message& push_flag(bool flag);

  std::uint64_t field(std::size_t i) const {
    assert(i < count_);
    return values_[i];
  }
  std::size_t num_fields() const { return count_; }
  int total_bits() const { return total_bits_; }

 private:
  std::uint64_t values_[kMaxFields] = {};
  int total_bits_ = 0;
  std::uint8_t count_ = 0;
};

static_assert(std::is_trivially_copyable_v<Message>);

}  // namespace bcclap::bcc
