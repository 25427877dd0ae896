// One environment-variable parsing seam for the whole library.
//
// BCCLAP_THREADS (common/thread_pool.cpp) is the library's only
// environment knob; dispatch decisions (engine key, factor backend) are
// explicit per-call arguments, never process state. Every variable is
// read live (tests set and unset them), and an unrecognized value warns
// exactly once per distinct (variable, value) pair process-wide, then
// falls back to the caller's default.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

namespace bcclap::common::env {

// Live read of `name`; nullopt when unset.
std::optional<std::string> raw(const char* name);

// Strictly positive integer variable (BCCLAP_THREADS). Returns nullopt
// when unset; non-integer, negative, zero or trailing-garbage values warn
// once and also return nullopt (caller applies its default).
std::optional<std::size_t> positive_count(const char* name);

// Clears the warn-once latch so tests can assert the warning fires again.
void reset_warnings_for_tests();

}  // namespace bcclap::common::env
