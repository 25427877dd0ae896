// common::env (common/env.h): the one environment-variable parsing seam.
// Covers live reads, strict positive-integer parsing, and the
// warn-once-per-(variable, value) latch that keeps a bench loop from
// emitting thousands of identical lines.
#include "common/env.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace bcclap::common::env {
namespace {

// Sets a variable for one test and restores the prior state on exit, so
// suites never leak configuration into each other.
class ScopedEnvVar {
 public:
  ScopedEnvVar(const char* name, const char* value) : name_(name) {
    const char* prev = std::getenv(name);
    if (prev != nullptr) previous_ = prev;
    if (value != nullptr) {
      ::setenv(name, value, /*overwrite=*/1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnvVar() {
    if (previous_) {
      ::setenv(name_.c_str(), previous_->c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::optional<std::string> previous_;
};

constexpr const char* kVar = "BCCLAP_TEST_ENV_VAR";

TEST(Env, RawReadsLiveValue) {
  {
    ScopedEnvVar unset(kVar, nullptr);
    EXPECT_FALSE(raw(kVar).has_value());
  }
  ScopedEnvVar set(kVar, "hello");
  ASSERT_TRUE(raw(kVar).has_value());
  EXPECT_EQ(*raw(kVar), "hello");
  // Live read: a change is visible on the next call, no caching.
  ::setenv(kVar, "world", 1);
  EXPECT_EQ(*raw(kVar), "world");
}

TEST(Env, PositiveCountAcceptsStrictlyPositiveIntegers) {
  ScopedEnvVar set(kVar, "4");
  ASSERT_TRUE(positive_count(kVar).has_value());
  EXPECT_EQ(*positive_count(kVar), 4u);
}

TEST(Env, PositiveCountRejectsEverythingElse) {
  reset_warnings_for_tests();
  for (const char* bad : {"0", "-3", "7x", "four", "", " 2", "2 "}) {
    ScopedEnvVar set(kVar, bad);
    EXPECT_FALSE(positive_count(kVar).has_value()) << "value \"" << bad
                                                   << "\"";
  }
  ScopedEnvVar unset(kVar, nullptr);
  EXPECT_FALSE(positive_count(kVar).has_value());
}

TEST(Env, WarnsOncePerDistinctValue) {
  reset_warnings_for_tests();
  ScopedEnvVar set(kVar, "bogus");

  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(positive_count(kVar).has_value());
  const std::string first = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(first.find("bogus"), std::string::npos);

  // Same (variable, value) pair again: the latch holds, nothing emitted.
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(positive_count(kVar).has_value());
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

  // A different value on the same variable is a fresh sighting.
  ::setenv(kVar, "alsobad", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(positive_count(kVar).has_value());
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("alsobad"),
            std::string::npos);
}

TEST(Env, ResetRearmsTheLatch) {
  reset_warnings_for_tests();
  ScopedEnvVar set(kVar, "stillbad");
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(positive_count(kVar).has_value());
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("stillbad"),
            std::string::npos);

  reset_warnings_for_tests();
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(positive_count(kVar).has_value());
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("stillbad"),
            std::string::npos);
}

}  // namespace
}  // namespace bcclap::common::env
