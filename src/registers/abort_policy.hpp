// Abort policies: the adversary inside an abortable register.
//
// The paper (Section 1.2, quoting [2]) specifies an abortable register as
// behaving like an atomic register except that operations that are
// *concurrent* with other operations may abort, returning bottom; an
// aborted write may or may not have taken effect. Operations that run
// solo never abort -- this is the property all of Section 6's adaptive
// back-off mechanisms rely on, so the simulator enforces it structurally:
// a policy is consulted only for operations that overlapped another
// operation on the same register.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"
#include "util/rng.hpp"

namespace tbwf::registers {

/// Everything a policy may observe about one contended operation.
struct OpContext {
  sim::Pid pid = sim::kNoPid;
  bool is_write = false;
  sim::Step invoked_at = 0;
  sim::Step responded_at = 0;
  /// Index of the register the operation targets (world arena index);
  /// 0xFFFFFFFF when not supplied (e.g. unit tests driving a policy
  /// directly). Fault injectors key per-register profiles on this.
  std::uint32_t reg = 0xFFFFFFFFu;
  /// True iff at least one overlapping operation was a write (safe
  /// registers only corrupt reads that overlap a write).
  bool any_overlap_write = false;
};

enum class WriteOutcome : std::uint8_t {
  Success,          ///< returns ok, value installed
  AbortNoEffect,    ///< returns bottom, register unchanged
  AbortWithEffect,  ///< returns bottom, but the value IS installed
  /// Degraded-medium outcomes (RegisterFaultInjector only): the caller
  /// sees success, but the medium lied. A spec-conforming abortable
  /// register never produces these; hardened channels must detect them.
  SilentDrop,  ///< returns ok, register unchanged (the write vanished)
  Torn,        ///< returns ok, only part of the value landed
};

enum class ReadOutcome : std::uint8_t {
  Success,
  Abort,
  /// Degraded-medium outcome (RegisterFaultInjector only): the read
  /// returns the register's *previous* value instead of the current one.
  Stale,
};

class AbortPolicy {
 public:
  virtual ~AbortPolicy() = default;

  /// Consulted only when the read overlapped at least one other op.
  virtual ReadOutcome on_contended_read(const OpContext& ctx) = 0;

  /// Consulted only when the write overlapped at least one other op.
  virtual WriteOutcome on_contended_write(const OpContext& ctx) = 0;

  /// Consulted for operations that ran solo. The abortable-register spec
  /// says solo operations never abort, so the defaults return Success and
  /// every spec-conforming policy inherits them; only the register fault
  /// layer (a deliberately *broken* medium, e.g. a jammed register)
  /// overrides these.
  virtual ReadOutcome on_solo_read(const OpContext& ctx);
  virtual WriteOutcome on_solo_write(const OpContext& ctx);

  /// The owning process crashed between the write's invocation and its
  /// response: does the value reach the register?
  virtual bool crashed_write_takes_effect(const OpContext& ctx);
};

/// Degenerates the abortable register into an atomic register. Useful as
/// a control in ablation benches.
class NeverAbortPolicy final : public AbortPolicy {
 public:
  ReadOutcome on_contended_read(const OpContext&) override {
    return ReadOutcome::Success;
  }
  WriteOutcome on_contended_write(const OpContext&) override {
    return WriteOutcome::Success;
  }
};

/// Maximal adversary: every contended operation aborts. The effect of
/// aborted writes is configurable; `Alternate` flips per write, which
/// exercises both branches of every caller.
class AlwaysAbortPolicy final : public AbortPolicy {
 public:
  enum class Effect { Never, Always, Alternate };

  explicit AlwaysAbortPolicy(Effect effect = Effect::Alternate)
      : effect_(effect) {}

  ReadOutcome on_contended_read(const OpContext&) override {
    return ReadOutcome::Abort;
  }
  WriteOutcome on_contended_write(const OpContext&) override;

 private:
  Effect effect_;
  bool flip_ = false;
};

/// Seeded random adversary: each contended read aborts with probability
/// p_abort_read, each contended write with p_abort_write; an aborted
/// write takes effect with probability p_effect.
class ProbabilisticAbortPolicy final : public AbortPolicy {
 public:
  ProbabilisticAbortPolicy(std::uint64_t seed, double p_abort_read,
                           double p_abort_write, double p_effect)
      : rng_(seed),
        p_abort_read_(p_abort_read),
        p_abort_write_(p_abort_write),
        p_effect_(p_effect) {}

  ReadOutcome on_contended_read(const OpContext&) override;
  WriteOutcome on_contended_write(const OpContext&) override;
  bool crashed_write_takes_effect(const OpContext&) override;

 private:
  util::Rng rng_;
  double p_abort_read_;
  double p_abort_write_;
  double p_effect_;
};

/// Time-phased adversary used by the chaos harness's abort storms: inside
/// each configured window [from, to) of model time, contended operations
/// abort with the window's escalated probability; outside every window
/// the decision is delegated to an optional calm policy (or succeeds).
/// Model time is taken from the operation's response step, which is when
/// the simulator consults the policy. Deterministic given the seed and
/// the (already deterministic) operation order.
class PhasedAbortPolicy final : public AbortPolicy {
 public:
  struct Phase {
    sim::Step from = 0;
    sim::Step to = 0;
    /// Abort probability for contended reads and writes in the window.
    double rate = 1.0;
    /// Probability an aborted (or crashed) write takes effect anyway.
    double p_effect = 0.5;
  };

  /// `calm` rules outside every phase window (may be nullptr: contended
  /// operations then succeed, i.e. the register is atomic when calm).
  /// calm must outlive this policy.
  explicit PhasedAbortPolicy(std::uint64_t seed, AbortPolicy* calm = nullptr)
      : rng_(seed), calm_(calm) {}

  void add_phase(Phase phase) { phases_.push_back(phase); }
  const std::vector<Phase>& phases() const { return phases_; }

  ReadOutcome on_contended_read(const OpContext& ctx) override;
  WriteOutcome on_contended_write(const OpContext& ctx) override;
  bool crashed_write_takes_effect(const OpContext& ctx) override;

  /// Aborts inflicted by storm windows (excludes calm-policy aborts).
  std::uint64_t storm_aborts() const { return storm_aborts_; }

 private:
  const Phase* phase_at(sim::Step t) const;

  util::Rng rng_;
  AbortPolicy* calm_;
  std::vector<Phase> phases_;
  std::uint64_t storm_aborts_ = 0;
};

/// Bounded exponential retry/backoff for aborted register operations.
///
/// The flip side of the abort adversaries above: the paper's Section 6
/// mechanisms win contended registers by *waiting out* the contention
/// (solo operations never abort), so every retry loop in this codebase
/// needs a back-off discipline with a hard bound. This one doubles from
/// `base` up to `cap` and is shared by the simulator workloads (delays
/// in steps) and the rt backend (delays in nanoseconds) -- the unit is
/// whatever the caller feeds in.
///
/// Deterministic by default; `jittered_delay` decorrelates threads that
/// abort in lockstep by drawing uniformly from [delay/2, delay] out of a
/// caller-owned seeded stream.
class BoundedBackoff {
 public:
  struct Options {
    std::uint64_t base = 1;     ///< delay after the first abort
    std::uint64_t cap = 1024;   ///< delays never exceed this
    /// Attempts strictly below this back off by 0 (immediate retry):
    /// the first abort is usually transient contention not worth a wait.
    int free_retries = 1;
  };

  BoundedBackoff() : BoundedBackoff(Options{}) {}
  explicit BoundedBackoff(Options options) : options_(options) {}

  /// Delay before retry number `attempt` (0-based count of prior aborts).
  std::uint64_t delay(int attempt) const;

  /// As `delay`, but uniformly jittered into [delay/2, delay].
  std::uint64_t jittered_delay(int attempt, util::Rng& rng) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

/// Adversary targeting specific victim processes: only *their* contended
/// operations abort; everyone else succeeds. Used to show per-process
/// graceful degradation (the victims stop progressing, others do not).
class TargetedAbortPolicy final : public AbortPolicy {
 public:
  explicit TargetedAbortPolicy(std::vector<sim::Pid> victims)
      : victims_(std::move(victims)) {}

  ReadOutcome on_contended_read(const OpContext& ctx) override;
  WriteOutcome on_contended_write(const OpContext& ctx) override;

 private:
  bool is_victim(sim::Pid p) const;
  std::vector<sim::Pid> victims_;
};

}  // namespace tbwf::registers
