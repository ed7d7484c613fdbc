// Tests of abort policies and register semantics beyond the basics in
// sim_world_test: policy decision logic, contention statistics, and the
// linearization behaviour of successful operations on abortable registers.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "registers/abort_policy.hpp"
#include "sim/env.hpp"
#include "sim/schedule.hpp"
#include "sim/world.hpp"

namespace tbwf {
namespace {

using sim::AbortableReg;
using sim::Pid;
using sim::SimEnv;
using sim::Task;
using sim::World;
using I64 = std::int64_t;

registers::OpContext make_ctx(Pid pid, bool is_write) {
  registers::OpContext ctx;
  ctx.pid = pid;
  ctx.is_write = is_write;
  return ctx;
}

// -- policy unit tests -----------------------------------------------------------

TEST(AbortPolicy, NeverAbortAlwaysSucceeds) {
  registers::NeverAbortPolicy p;
  EXPECT_EQ(p.on_contended_read(make_ctx(0, false)),
            registers::ReadOutcome::Success);
  EXPECT_EQ(p.on_contended_write(make_ctx(0, true)),
            registers::WriteOutcome::Success);
}

TEST(AbortPolicy, AlwaysAbortAborts) {
  registers::AlwaysAbortPolicy p(registers::AlwaysAbortPolicy::Effect::Never);
  EXPECT_EQ(p.on_contended_read(make_ctx(0, false)),
            registers::ReadOutcome::Abort);
  EXPECT_EQ(p.on_contended_write(make_ctx(0, true)),
            registers::WriteOutcome::AbortNoEffect);
}

TEST(AbortPolicy, AlwaysAbortAlternateFlipsEffect) {
  registers::AlwaysAbortPolicy p(
      registers::AlwaysAbortPolicy::Effect::Alternate);
  const auto a = p.on_contended_write(make_ctx(0, true));
  const auto b = p.on_contended_write(make_ctx(0, true));
  EXPECT_NE(a, b);
  EXPECT_TRUE(a == registers::WriteOutcome::AbortWithEffect ||
              b == registers::WriteOutcome::AbortWithEffect);
}

TEST(AbortPolicy, ProbabilisticRatesRoughlyCalibrated) {
  registers::ProbabilisticAbortPolicy p(/*seed=*/3, /*p_abort_read=*/0.25,
                                        /*p_abort_write=*/0.75,
                                        /*p_effect=*/0.5);
  int read_aborts = 0, write_aborts = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (p.on_contended_read(make_ctx(0, false)) ==
        registers::ReadOutcome::Abort) {
      ++read_aborts;
    }
    if (p.on_contended_write(make_ctx(0, true)) !=
        registers::WriteOutcome::Success) {
      ++write_aborts;
    }
  }
  EXPECT_NEAR(read_aborts / static_cast<double>(trials), 0.25, 0.02);
  EXPECT_NEAR(write_aborts / static_cast<double>(trials), 0.75, 0.02);
}

TEST(AbortPolicy, TargetedHitsOnlyVictims) {
  registers::TargetedAbortPolicy p({2, 4});
  EXPECT_EQ(p.on_contended_read(make_ctx(2, false)),
            registers::ReadOutcome::Abort);
  EXPECT_EQ(p.on_contended_read(make_ctx(3, false)),
            registers::ReadOutcome::Success);
  EXPECT_EQ(p.on_contended_write(make_ctx(4, true)),
            registers::WriteOutcome::AbortNoEffect);
  EXPECT_EQ(p.on_contended_write(make_ctx(0, true)),
            registers::WriteOutcome::Success);
}

// -- linearization of successful abortable ops ---------------------------------------

Task writer_loop(SimEnv& env, AbortableReg<I64> reg, int count,
                 std::vector<bool>& results) {
  for (int i = 1; i <= count; ++i) {
    const bool ok = co_await env.write(reg, i);
    results.push_back(ok);
  }
}

Task reader_loop(SimEnv& env, AbortableReg<I64> reg, int count,
                 std::vector<std::optional<I64>>& seen) {
  for (int i = 0; i < count; ++i) {
    seen.push_back(co_await env.read(reg));
  }
}

TEST(AbortableRegister, SuccessfulReadsAreMonotone) {
  // A single writer writes 1..N in order; successful reads must observe a
  // non-decreasing sequence (each effect replaces the value).
  auto w = std::make_unique<World>(
      2, std::make_unique<sim::RandomSchedule>(21));
  registers::ProbabilisticAbortPolicy policy(5, 0.5, 0.5, 0.5);
  auto reg = w->make_abortable<I64>("ar", 0, &policy, /*writer=*/0,
                                    /*reader=*/1);
  std::vector<bool> writes;
  std::vector<std::optional<I64>> reads;
  w->spawn(0, "w", [&](SimEnv& env) {
    return writer_loop(env, reg, 200, writes);
  });
  w->spawn(1, "r", [&](SimEnv& env) {
    return reader_loop(env, reg, 200, reads);
  });
  w->run(100000);
  I64 prev = 0;
  int successful = 0;
  for (const auto& r : reads) {
    if (!r.has_value()) continue;
    EXPECT_GE(*r, prev);
    prev = *r;
    ++successful;
  }
  EXPECT_GT(successful, 0);
}

TEST(AbortableRegister, StatsCountAborts) {
  auto w = std::make_unique<World>(
      2, std::make_unique<sim::ScriptedSchedule>(
             std::vector<Pid>{0, 1, 0, 1}, /*loop=*/true));
  registers::AlwaysAbortPolicy policy(
      registers::AlwaysAbortPolicy::Effect::Never);
  auto reg = w->make_abortable<I64>("ar", 0, &policy);
  std::vector<bool> writes;
  std::vector<std::optional<I64>> reads;
  w->spawn(0, "w", [&](SimEnv& env) {
    return writer_loop(env, reg, 10, writes);
  });
  w->spawn(1, "r", [&](SimEnv& env) {
    return reader_loop(env, reg, 10, reads);
  });
  w->run(40);
  const auto& info = w->cell_info(reg.idx);
  EXPECT_GT(info.n_write_aborts, 0u);
  EXPECT_GT(info.n_read_aborts, 0u);
  EXPECT_EQ(info.n_reads, info.n_read_aborts);  // all contended => all abort
}

// The adaptive pattern from Section 6: a reader that backs off on abort
// eventually reads solo and succeeds, even under AlwaysAbortPolicy.
Task backoff_reader(SimEnv& env, AbortableReg<I64> reg, bool& got_value,
                    I64& value) {
  std::uint64_t timeout = 1;
  for (;;) {
    for (std::uint64_t i = 0; i < timeout; ++i) co_await env.yield();
    const auto r = co_await env.read(reg);
    if (r.has_value()) {
      got_value = true;
      value = *r;
      co_return;
    }
    ++timeout;  // back off: read less often
  }
}

Task persistent_writer(SimEnv& env, AbortableReg<I64> reg, I64 v) {
  // Keep writing until one write succeeds (the Figure 4 discipline).
  for (;;) {
    const bool ok = co_await env.write(reg, v);
    if (ok) co_return;
  }
}

TEST(AbortableRegister, BackoffBeatsAlwaysAbortAdversary) {
  auto w = std::make_unique<World>(
      2, std::make_unique<sim::RoundRobinSchedule>());
  registers::AlwaysAbortPolicy policy(
      registers::AlwaysAbortPolicy::Effect::Never);
  auto reg = w->make_abortable<I64>("ar", 0, &policy, 0, 1);
  bool got = false;
  I64 value = 0;
  w->spawn(0, "w", [&](SimEnv& env) {
    return persistent_writer(env, reg, 99);
  });
  w->spawn(1, "r", [&](SimEnv& env) {
    return backoff_reader(env, reg, got, value);
  });
  w->run(100000);
  EXPECT_TRUE(got);
  EXPECT_EQ(value, 99);
}

TEST(BoundedBackoff, DoublesFromBaseAndSaturatesAtCap) {
  registers::BoundedBackoff backoff{{.base = 2, .cap = 16, .free_retries = 1}};
  EXPECT_EQ(backoff.delay(0), 0u);  // free retry
  EXPECT_EQ(backoff.delay(1), 2u);
  EXPECT_EQ(backoff.delay(2), 4u);
  EXPECT_EQ(backoff.delay(3), 8u);
  EXPECT_EQ(backoff.delay(4), 16u);
  EXPECT_EQ(backoff.delay(5), 16u);    // capped
  EXPECT_EQ(backoff.delay(200), 16u);  // no overflow at silly attempts
}

TEST(BoundedBackoff, JitterStaysInHalfOpenBand) {
  registers::BoundedBackoff backoff{{.base = 4, .cap = 1024, .free_retries = 0}};
  util::Rng rng(7);
  for (int attempt = 1; attempt < 12; ++attempt) {
    const std::uint64_t full = backoff.delay(attempt);
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t j = backoff.jittered_delay(attempt, rng);
      EXPECT_GE(j, full / 2);
      EXPECT_LE(j, full);
    }
  }
}

}  // namespace
}  // namespace tbwf
