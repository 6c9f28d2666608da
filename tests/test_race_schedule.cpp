// The window fuzzer's replay format: Schedule serialization and parsing, and
// GuidedSource's prefix replay with stale-pick clamping.
#include <gtest/gtest.h>

#include <stdexcept>

#include "race/schedule.hpp"

using namespace pasched::race;

TEST(Schedule, SerializeParseRoundTrip) {
  Schedule s;
  s.push_back({"shard.window_quantum", 3, 1});
  s.push_back({"shard.window_quantum", 4, 0});
  s.push_back({"x", 4, 3});
  const Schedule back = Schedule::parse(s.serialize());
  EXPECT_EQ(back, s);
  EXPECT_EQ(Schedule::parse(s.str()), s);
}

TEST(Schedule, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)Schedule::parse("tag-only"), std::logic_error);
  EXPECT_THROW((void)Schedule::parse("t 3"), std::logic_error);
  EXPECT_THROW((void)Schedule::parse("t 3 3"), std::logic_error);  // pick>=arity
  EXPECT_THROW((void)Schedule::parse("t 0 0"), std::logic_error);  // arity 0
  EXPECT_THROW((void)Schedule::parse("t 2 1 junk"), std::logic_error);
  EXPECT_THROW((void)Schedule::parse("t x y"), std::logic_error);
  // Comments and blank lines are fine.
  const Schedule s = Schedule::parse("# header\n\nshard.window_quantum 2 1\n");
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.at(0), (Choice{"shard.window_quantum", 2, 1}));
}

TEST(GuidedSourceTest, ReplaysPrefixThenDefaults) {
  Schedule prefix;
  prefix.push_back({"x", 4, 2});
  GuidedSource src(prefix);
  EXPECT_EQ(src.choose(4, "x"), 2u);
  EXPECT_EQ(src.choose(5, "y"), 0u);  // past the prefix: default
  EXPECT_FALSE(src.clamped());
  ASSERT_EQ(src.trace().size(), 2u);
  EXPECT_EQ(src.trace().at(0), (Choice{"x", 4, 2}));
  EXPECT_EQ(src.trace().at(1), (Choice{"y", 5, 0}));
}

TEST(GuidedSourceTest, ClampsStalePickToLiveArity) {
  Schedule prefix;
  prefix.push_back({"x", 4, 3});
  GuidedSource src(prefix);
  EXPECT_EQ(src.choose(2, "x"), 1u);  // clamped to live arity - 1
  EXPECT_TRUE(src.clamped());
}
