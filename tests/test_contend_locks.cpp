// Unit coverage of the PSL50x lockset extractor: mutex member
// discovery, RAII-guard and manual lock()/unlock() held-set tracking, block
// scoping, blocking-seam and call-site records — the raw material the
// cross-TU LockGraph canonicalizes.
#include <gtest/gtest.h>

#include <string>

#include "contend/locks.hpp"
#include "srclint/rules.hpp"
#include "srclint/source.hpp"

using namespace pasched;

namespace {

contend::FileLocks extract(const std::string& code,
                           const std::string& path = "src/sim/fixture.cpp") {
  const srclint::SourceFile f = srclint::lex_string(code, path);
  return contend::extract_locks(f, contend::ContendConfig{});
}

}  // namespace

TEST(ContendLocks, MutexMembersExtractWithSeamFlag) {
  const contend::FileLocks locks = extract(R"(
struct Inbox {
  std::mutex mu;
  util::SeamMutex smu_;
  int payload = 0;
};
)");
  ASSERT_EQ(locks.mutex_members.size(), 2u);
  EXPECT_EQ(locks.mutex_members[0].cls, "Inbox");
  EXPECT_EQ(locks.mutex_members[0].member, "mu");
  EXPECT_FALSE(locks.mutex_members[0].seam);
  EXPECT_EQ(locks.mutex_members[1].member, "smu_");
  EXPECT_TRUE(locks.mutex_members[1].seam);
}

TEST(ContendLocks, GuardAcquisitionsAccumulateTheHeldSet) {
  const contend::FileLocks locks = extract(R"(
void f(Pair& p) {
  const std::scoped_lock la(p.a_);
  const std::scoped_lock lb(p.b_);
}
)");
  ASSERT_EQ(locks.functions.size(), 1u);
  const contend::FunctionLocks& fn = locks.functions[0];
  ASSERT_EQ(fn.acquisitions.size(), 2u);
  EXPECT_EQ(fn.acquisitions[0].mutex, "a_");
  EXPECT_TRUE(fn.acquisitions[0].held.empty());
  EXPECT_EQ(fn.acquisitions[1].mutex, "b_");
  ASSERT_EQ(fn.acquisitions[1].held.size(), 1u);
  EXPECT_EQ(fn.acquisitions[1].held[0], "a_");
}

TEST(ContendLocks, BlockScopeReleasesItsGuards) {
  const contend::FileLocks locks = extract(R"(
void f(Pair& p) {
  {
    const std::scoped_lock la(p.a_);
  }
  const std::scoped_lock lb(p.b_);
}
)");
  ASSERT_EQ(locks.functions.size(), 1u);
  const contend::FunctionLocks& fn = locks.functions[0];
  ASSERT_EQ(fn.acquisitions.size(), 2u);
  EXPECT_EQ(fn.acquisitions[1].mutex, "b_");
  EXPECT_TRUE(fn.acquisitions[1].held.empty());
}

TEST(ContendLocks, ManualLockUnlockTracksHeld) {
  const contend::FileLocks locks = extract(R"(
void f(Pair& p) {
  p.a_.lock();
  p.b_.lock();
  p.a_.unlock();
  p.c_.lock();
  p.b_.unlock();
  p.c_.unlock();
}
)");
  ASSERT_EQ(locks.functions.size(), 1u);
  const contend::FunctionLocks& fn = locks.functions[0];
  ASSERT_EQ(fn.acquisitions.size(), 3u);
  EXPECT_TRUE(fn.acquisitions[0].held.empty());
  ASSERT_EQ(fn.acquisitions[1].held.size(), 1u);
  EXPECT_EQ(fn.acquisitions[1].held[0], "a_");
  // a_ released before c_ was taken: only b_ rides along.
  ASSERT_EQ(fn.acquisitions[2].held.size(), 1u);
  EXPECT_EQ(fn.acquisitions[2].held[0], "b_");
}

TEST(ContendLocks, MultiMutexGuardHoldsAllArguments) {
  const contend::FileLocks locks = extract(R"(
void f(Pair& p) {
  const std::scoped_lock both(p.a_, p.b_);
  p.c_.lock();
}
)");
  ASSERT_EQ(locks.functions.size(), 1u);
  const contend::FunctionLocks& fn = locks.functions[0];
  ASSERT_EQ(fn.acquisitions.size(), 3u);
  EXPECT_EQ(fn.acquisitions.back().mutex, "c_");
  EXPECT_EQ(fn.acquisitions.back().held.size(), 2u);
}

TEST(ContendLocks, BlockingSeamRecordsTheHeldLocks) {
  const contend::FileLocks locks = extract(R"(
void f(Window& w) {
  const std::scoped_lock lk(w.mu_);
  w.gate_.arrive_and_wait();
}
)");
  ASSERT_EQ(locks.functions.size(), 1u);
  const contend::FunctionLocks& fn = locks.functions[0];
  ASSERT_EQ(fn.blocking.size(), 1u);
  EXPECT_EQ(fn.blocking[0].what, "arrive_and_wait");
  ASSERT_EQ(fn.blocking[0].held.size(), 1u);
  EXPECT_EQ(fn.blocking[0].held[0], "mu_");
}

TEST(ContendLocks, CallSitesRecordTheHeldSetForClosure) {
  const contend::FileLocks locks = extract(R"(
void f(Window& w) {
  const std::scoped_lock lk(w.mu_);
  helper(w);
}
)");
  ASSERT_EQ(locks.functions.size(), 1u);
  const contend::FunctionLocks& fn = locks.functions[0];
  bool saw_helper = false;
  for (const contend::CallSite& c : fn.calls) {
    if (c.callee != "helper") continue;
    saw_helper = true;
    ASSERT_EQ(c.held.size(), 1u);
    EXPECT_EQ(c.held[0], "mu_");
  }
  EXPECT_TRUE(saw_helper);
}

TEST(ContendLocks, ScopeFilterAndOnlyList) {
  const contend::ContendConfig cfg;
  EXPECT_TRUE(cfg.in_scope("src/sim/shard.cpp"));
  EXPECT_FALSE(cfg.in_scope("tests/test_sim_shard.cpp"));
  EXPECT_FALSE(cfg.in_scope("bench/micro_shard.cpp"));

  srclint::RuleSelection narrowed;
  narrowed.only = {"PSL503"};
  EXPECT_TRUE(narrowed.enabled("PSL503"));
  EXPECT_FALSE(narrowed.enabled("PSL501"));
  // An empty only-list enables all.
  EXPECT_TRUE(srclint::RuleSelection{}.enabled("PSL501"));
}
