#include "bcc/message.h"

#include <stdexcept>

#include "common/encoding.h"

namespace bcclap::bcc {

Message& Message::push(std::uint64_t value, int bits) {
  if (bits < 1 || bits > 64) {
    throw std::invalid_argument(
        "Message::push: field width must be in [1, 64]");
  }
  if (bits < 64 && value >= (std::uint64_t{1} << bits)) {
    throw std::invalid_argument(
        "Message::push: value does not fit the field");
  }
  if (count_ == kMaxFields) {
    throw std::length_error(
        "Message::push: inline field capacity exceeded");
  }
  values_[count_++] = value;
  total_bits_ += bits;
  return *this;
}

Message& Message::push_id(std::size_t id, std::size_t n) {
  return push(static_cast<std::uint64_t>(id), enc::id_bits(n));
}

Message& Message::push_flag(bool flag) { return push(flag ? 1 : 0, 1); }

}  // namespace bcclap::bcc
