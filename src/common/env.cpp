#include "common/env.h"

#include <cstdlib>
#include <mutex>
#include <set>

#include "common/logging.h"

namespace bcclap::common::env {

namespace {

std::mutex& warn_mu() {
  static std::mutex mu;
  return mu;
}

// Leaky (never destroyed): warnings may fire during other statics'
// teardown in tests, after a function-local static set would be gone.
std::set<std::string>& warned() {
  static std::set<std::string>* seen = new std::set<std::string>();
  return *seen;
}

// True exactly once per distinct (variable, value) pair process-wide.
bool first_sighting(const char* name, const std::string& value) {
  std::lock_guard<std::mutex> lock(warn_mu());
  return warned().insert(std::string(name) + "=" + value).second;
}

}  // namespace

std::optional<std::string> raw(const char* name) {
  const char* e = std::getenv(name);
  if (e == nullptr) return std::nullopt;
  return std::string(e);
}

std::optional<std::size_t> positive_count(const char* name) {
  const auto value = raw(name);
  if (!value) return std::nullopt;
  // strtol would skip leading whitespace and accept a sign; the knob
  // contract is a bare decimal count, so require a digit up front.
  const char* s = value->c_str();
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (*s >= '0' && *s <= '9' && end != s && *end == '\0' && v > 0)
    return static_cast<std::size_t>(v);
  if (first_sighting(name, *value)) {
    BCCLAP_WARN(name << "=\"" << *value
                     << "\" is not a positive integer; ignoring it");
  }
  return std::nullopt;
}

void reset_warnings_for_tests() {
  std::lock_guard<std::mutex> lock(warn_mu());
  warned().clear();
}

}  // namespace bcclap::common::env
