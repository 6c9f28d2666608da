// InlineCallback: the no-allocation callable used for every event.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/callback.hpp"

using pasched::sim::InlineCallback;

TEST(InlineCallback, EmptyByDefault) {
  InlineCallback<48> cb;
  EXPECT_FALSE(static_cast<bool>(cb));
  EXPECT_THROW(cb(), std::logic_error);
}

TEST(InlineCallback, InvokesLambda) {
  int hits = 0;
  InlineCallback<48> cb = [&hits] { ++hits; };
  ASSERT_TRUE(static_cast<bool>(cb));
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, MoveTransfersOwnership) {
  int hits = 0;
  InlineCallback<48> a = [&hits] { ++hits; };
  InlineCallback<48> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineCallback, MoveAssignReplacesAndDestroysOld) {
  auto counter = std::make_shared<int>(0);
  EXPECT_EQ(counter.use_count(), 1);
  {
    InlineCallback<48> a = [counter] { ++*counter; };
    EXPECT_EQ(counter.use_count(), 2);
    InlineCallback<48> b = [counter] { *counter += 10; };
    EXPECT_EQ(counter.use_count(), 3);
    a = std::move(b);
    EXPECT_EQ(counter.use_count(), 2) << "old capture must be destroyed";
    a();
    EXPECT_EQ(*counter, 10);
  }
  EXPECT_EQ(counter.use_count(), 1) << "all captures destroyed with wrappers";
}

TEST(InlineCallback, DestructorReleasesCapture) {
  auto token = std::make_shared<int>(7);
  {
    InlineCallback<48> cb = [token] { (void)*token; };
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineCallback, ResetClears) {
  auto token = std::make_shared<int>(7);
  InlineCallback<48> cb = [token] {};
  cb.reset();
  EXPECT_FALSE(static_cast<bool>(cb));
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineCallback, SelfMoveAssignIsSafe) {
  int hits = 0;
  InlineCallback<48> a = [&hits] { ++hits; };
  auto& ref = a;
  a = std::move(ref);
  ASSERT_TRUE(static_cast<bool>(a));
  a();
  EXPECT_EQ(hits, 1);
}

TEST(InlineCallback, CapturesUpToCapacity) {
  struct Big {
    std::int64_t a[5];  // 40 bytes — fits in 48
  };
  Big big{{1, 2, 3, 4, 5}};
  std::int64_t sum = 0;
  // sum pointer (8) + Big (40) = 48 bytes: exactly at capacity.
  std::int64_t* sp = &sum;
  InlineCallback<48> cb = [sp, big] {
    for (auto v : big.a) *sp += v;
  };
  cb();
  EXPECT_EQ(sum, 15);
}

TEST(InlineCallback, SharedPtrCaptureIsDestroyedOnceAcrossThreeMoves) {
  // Job::submit_io's shape: a countdown shared between callbacks. The
  // capture owns a reference, so it takes the relocate/destroy path.
  int deleted = 0;
  int ran = 0;
  std::weak_ptr<int> probe;
  {
    std::shared_ptr<int> wait(new int(1), [&deleted](int* p) {
      ++deleted;
      delete p;
    });
    probe = wait;
    int* runs = &ran;
    auto fn = [wait, runs] { *runs += *wait; };
    static_assert(!std::is_trivially_copyable_v<decltype(fn)>);
    InlineCallback<48> a = std::move(fn);
    EXPECT_EQ(probe.use_count(), 2);  // `wait` and the wrapper
    wait.reset();
    InlineCallback<48> b = std::move(a);
    InlineCallback<48> c = std::move(b);
    InlineCallback<48> d;
    d = std::move(c);
    EXPECT_EQ(probe.use_count(), 1) << "only the live wrapper holds it";
    d();
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(deleted, 0);
  }
  EXPECT_EQ(deleted, 1) << "the capture is destroyed exactly once";
  EXPECT_TRUE(probe.expired());
}

TEST(InlineCallback, TrivialCaptureRunsAfterThreeMoves) {
  // Job::inject's shape: a pointer and two integers, moved bytewise.
  std::uint64_t seen = 0;
  std::uint64_t* sink = &seen;
  const int src = 7;
  const std::uint64_t tag = 1'000'000'007;
  auto fn = [sink, src, tag] { *sink = tag + static_cast<std::uint64_t>(src); };
  static_assert(std::is_trivially_copyable_v<decltype(fn)>);
  InlineCallback<48> a = fn;
  InlineCallback<48> b = std::move(a);
  InlineCallback<48> c = std::move(b);
  InlineCallback<48> d;
  d = std::move(c);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(static_cast<bool>(c));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(d));
  d();
  EXPECT_EQ(seen, 1'000'000'014u);
}
