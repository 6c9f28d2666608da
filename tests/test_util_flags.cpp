// Command-line flags.
#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <vector>

#include "util/flags.hpp"

using pasched::util::Flags;

namespace {
Flags make_flags(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  for (const char* a : args) argv.push_back(a);
  return Flags(static_cast<int>(argv.size()), argv.data());
}
}  // namespace

TEST(Flags, ParsesEqualsAndSpaceForms) {
  const Flags f = make_flags({"--nodes=59", "--calls", "1000", "--verbose"});
  EXPECT_EQ(f.get_int("nodes", 0), 59);
  EXPECT_EQ(f.get_int("calls", 0), 1000);
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_EQ(f.get_int("missing", 7), 7);
}

TEST(Flags, PositionalArgumentsPreserved) {
  const Flags f = make_flags({"input.txt", "--x=1", "more"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "more");
}

TEST(Flags, TypeErrorsThrow) {
  const Flags f = make_flags({"--n=abc"});
  EXPECT_THROW((void)f.get_int("n", 0), std::logic_error);
  EXPECT_THROW((void)f.get_bool("n", false), std::logic_error);
}

TEST(Flags, UnknownDetection) {
  const Flags f = make_flags({"--known=1", "--typo=2"});
  const auto unknown = f.unknown({"known"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Flags, DoubleValues) {
  const Flags f = make_flags({"--duty=0.95"});
  EXPECT_NEAR(f.get_double("duty", 0), 0.95, 1e-12);
}
