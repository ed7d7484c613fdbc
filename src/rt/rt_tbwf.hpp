// Figure 7 on real threads.
//
// Timeliness in a deployed system is wall-clock responsiveness, so the
// Omega-Delta role is played by a LEASE: a thread leads for a bounded
// real-time window; if it is descheduled (not timely), the lease
// expires and leadership moves on -- the graceful-degradation shape of
// the paper, in clock units. RtTbwfObject is core::TbwfObject, the one
// Figure 7 coroutine, over RtBase (rt/rt_qa.hpp) and LeaseLeader.
//
// The canonical wait of line 2 runs here too: a thread that still holds
// a live lease when it invokes waits for the lease to lapse and runs
// its operation under a new tenure. Operations release the lease when
// they complete, so the wait holds up only a thread that took the lease
// outside the object. What the lease lacks is Omega-Delta's guarantee:
// nothing elects a timely thread in particular, and a freed lease goes
// to whichever thread tries first.
//
// This port is a pragmatic engineering artifact: the lease CAS is a
// strong primitive the paper's construction deliberately avoids; the
// simulator backend is the register-only reproduction. E11 prices the
// object against a mutex, a CAS loop and a fetch_add on real threads.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "registers/abort_policy.hpp"
#include "util/cacheline.hpp"

namespace tbwf::rt {

/// Adaptive lease-term calibrator: an EWMA of observed operation/step
/// latency, in the spirit of the paper's dynamic activity-monitor
/// timeouts (Section 5's monitors grow their windows to match observed
/// behaviour; here the lease term tracks how long a leader actually
/// needs). Feed it per-operation latencies with observe(); the elector
/// asks for term_ns() on every acquisition, so the term follows load:
/// fast ops shrink the term (quick failover after a leader dies), slow
/// ops grow it (no spurious expiry mid-operation).
///
/// Thread-safe and lock-free: the EWMA lives in one atomic word updated
/// by CAS; a lost race just drops that sample, which is harmless for a
/// smoothed estimate.
class LeaseCalibrator {
 public:
  struct Options {
    double alpha = 0.125;              ///< EWMA weight of a new sample
    double multiplier = 16.0;          ///< term = multiplier * ewma
    std::uint64_t floor_ns = 2000;     ///< never shorter than this
    std::uint64_t ceil_ns = 20000000;  ///< never longer than this (20 ms)
    /// Drift-margin guard: assume own clock may run up to this many
    /// ppm FAST and shorten the claimed term accordingly, so a
    /// drifting leaseholder undershoots rather than overshoots the
    /// expiry everyone else computes. 0 (default) changes nothing.
    std::uint64_t drift_margin_ppm = 0;
  };

  LeaseCalibrator() : LeaseCalibrator(Options{}) {}
  explicit LeaseCalibrator(Options options,
                           std::uint64_t initial_latency_ns = 10000)
      : options_(options), ewma_ns_(initial_latency_ns) {}

  /// Record one observed operation latency.
  /// All orders relaxed: the EWMA is self-contained numeric state -- no
  /// consumer reads other data "through" it, and a term computed from a
  /// slightly stale estimate is exactly as valid as the fresh one.
  void observe(std::uint64_t latency_ns) {
    std::uint64_t cur = ewma_ns_->load(std::memory_order_relaxed);
    for (int tries = 0; tries < 4; ++tries) {
      const double next = static_cast<double>(cur) +
                          options_.alpha * (static_cast<double>(latency_ns) -
                                            static_cast<double>(cur));
      const auto packed =
          static_cast<std::uint64_t>(next < 1.0 ? 1.0 : next);
      if (ewma_ns_->compare_exchange_weak(cur, packed,
                                          std::memory_order_relaxed)) {
        samples_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  }

  std::uint64_t ewma_ns() const {
    return ewma_ns_->load(std::memory_order_relaxed);
  }

  /// The calibrated lease term: multiplier * ewma, drift-discounted,
  /// clamped.
  std::uint64_t term_ns() const {
    double raw = options_.multiplier * static_cast<double>(ewma_ns());
    if (options_.drift_margin_ppm > 0) {
      // A clock d ppm fast inflates both the observed latencies and the
      // holder's idea of "now + term"; discounting by the same factor
      // keeps the true expiry at or before the claimed one.
      raw = raw * 1e6 /
            (1e6 + static_cast<double>(options_.drift_margin_ppm));
    }
    auto term = static_cast<std::uint64_t>(raw);
    if (term < options_.floor_ns) term = options_.floor_ns;
    if (term > options_.ceil_ns) term = options_.ceil_ns;
    return term;
  }

  std::uint64_t samples() const {
    return samples_.load(std::memory_order_relaxed);
  }

  /// Forget everything observed so far and restart the EWMA from
  /// `initial_latency_ns`. Call when the observing process is restarted
  /// or re-joins in a new epoch: a replacement worker must not inherit
  /// the corpse's timing estimate (a dead leader's last samples say
  /// nothing about the machine state its successor runs under).
  /// relaxed, like observe(): self-contained numeric state -- a racing
  /// observe() that lands after the reset is just the first sample of
  /// the new incarnation's estimate.
  void reset(std::uint64_t initial_latency_ns = 10000) {
    ewma_ns_->store(initial_latency_ns, std::memory_order_relaxed);
    samples_.store(0, std::memory_order_relaxed);
  }

  const Options& options() const { return options_; }

 private:
  Options options_;
  /// Own line: CASed by every committing leader; keeping it off the
  /// read-only options_ line lets term_ns() readers stay in shared
  /// state. samples_ lands on the trailing line alone (the struct is
  /// line-aligned), so its relaxed bumps disturb no reader either.
  util::CachelinePadded<std::atomic<std::uint64_t>> ewma_ns_;
  std::atomic<std::uint64_t> samples_{0};
};

/// Bounded-term leadership lease over a single atomic word, with fencing.
///
/// Layout: owner (24 bits) | expiry (40 bits of nanoseconds, modulo
/// 2^40). The 40-bit clock wraps every ~18 minutes, so expiry tests use
/// wraparound-safe ring comparison (like TCP sequence numbers): the
/// lease is live iff expiry is AHEAD of now by less than half the ring.
/// Terms are clamped to kMaxTermNs (~69 s) so a live lease is always
/// well inside the half-window; a lease abandoned for longer than ~9
/// minutes could alias back to "live", which the supervisor rules out
/// by revoking the leases of dead workers.
///
/// Fencing: every ownership transfer increments a monotone fence
/// counter, and try_lead hands the winner its fence token. A commit
/// guarded by validate(tid, token) can never be performed with a stale
/// lease from before a revoke() or a re-election -- the token from
/// acquisition k fails validation as soon as acquisition k+1 (or a
/// revoke) bumps the fence. This is what makes supervisor restarts
/// safe: revoke(tid) on the dead incarnation's behalf fences off any
/// token the revived worker may have captured before dying.
///
/// Clock hardening (the drift-tolerant leasing layer):
///   - every clock read is MONOTONE-CLAMPED against the largest value
///     any thread has fed this elector, so a thread whose own source
///     jumps backward or freezes still judges leases at (at least) the
///     global high-water mark -- a backward jump can neither resurrect
///     an expired lease nor stretch a live one;
///   - try_lead detects FORWARD JUMPS: a raw reading that leaps past
///     the high-water mark by more than jump_suspect_ns means the
///     caller's clock (or scheduling) left the calibrated regime, so
///     its own lease state is suspect -- it revokes itself (monotone
///     fence bump, the supervisor-restart path), resets the attached
///     calibrator, and reports the election lost. The default
///     threshold (1 s) sits far above any term the calibrator can
///     produce and far below operator-scale clock steps.
class LeaseElector {
 public:
  using ClockFn = std::uint64_t (*)();  ///< monotone nanoseconds

  /// One no-owner sentinel, sized to the 24-bit owner field. Real tids
  /// must be < kNoOwner.
  static constexpr std::uint32_t kNoOwner = 0xFFFFFFu;
  static constexpr std::uint64_t kTimeMask = (1ULL << 40) - 1;
  /// Leases ahead by >= half the 40-bit ring read as expired.
  static constexpr std::uint64_t kHalfWindow = 1ULL << 39;
  /// Hard cap on the term so expiry stays well inside the half-window.
  static constexpr std::uint64_t kMaxTermNs = 1ULL << 36;  // ~68.7 s
  /// Default forward-jump suspicion threshold (see class comment).
  static constexpr std::uint64_t kDefaultJumpSuspectNs = 1000000000;  // 1 s

  explicit LeaseElector(std::chrono::nanoseconds term,
                        ClockFn clock = nullptr)
      : term_ns_(clamp_term(term)), clock_(clock) {}

  /// Try to become (or remain) leader now; on success *fence_out (if
  /// non-null) receives the token to pass to validate() before any
  /// commit performed under this lease. A sitting leader renews its
  /// expiry via CAS -- if the renewal CAS fails the lease was stolen or
  /// revoked and the call reports failure. A caller whose clock jumped
  /// forward past the suspicion threshold fences itself off instead
  /// (see the class comment) and reports failure.
  bool try_lead(std::uint32_t tid, std::uint64_t* fence_out = nullptr) {
    const std::uint64_t raw = raw_clock();
    // relaxed: the high-water mark is self-contained numeric state (see
    // mono_clamp); the jump test only compares magnitudes.
    const std::uint64_t seen = last_raw_->load(std::memory_order_relaxed);
    const std::uint64_t now = mono_clamp(raw) & kTimeMask;
    if (jump_suspect_ns_ != 0 && seen != 0 && raw > seen &&
        raw - seen >= jump_suspect_ns_) {
      // Own clock leapt out of the calibrated regime: every duration
      // this thread believes about its lease is untrustworthy. Treat
      // the lease as lost the safe way -- revoke (frees + fence bump,
      // the same path a supervisor restart takes) and start the
      // calibrator over rather than poison the EWMA with jump-spanning
      // samples.
      revoke(tid);
      if (calibrator_ != nullptr) calibrator_->reset();
      // relaxed: monotone diagnostic tally.
      jumps_detected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // acquire pairs with the release half of the CAS that last
    // transferred ownership: observing a freed/expired word implies
    // observing the fence value of that tenure.
    std::uint64_t cur = hot_.lease.load(std::memory_order_acquire);
    const auto owner = static_cast<std::uint32_t>(cur >> 40);
    const std::uint64_t expiry = cur & kTimeMask;
    const bool live = owner != kNoOwner && lease_live(now, expiry);
    if (live && owner != tid) return false;
    const std::uint64_t next =
        (static_cast<std::uint64_t>(tid) << 40) |
        ((now + current_term_ns()) & kTimeMask);
    // acq_rel: acquire makes the previous tenure's writes visible to
    // the new leader; release publishes this takeover to the next one.
    if (!hot_.lease.compare_exchange_strong(cur, next,
                                            std::memory_order_acq_rel)) {
      return false;
    }
    if (live) {
      // Renewal: same tenure, same token.
      if (fence_out != nullptr) {
        *fence_out = hot_.fence.load(std::memory_order_acquire);
      }
      return true;
    }
    const std::uint64_t token =
        hot_.fence.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (fence_out != nullptr) *fence_out = token;
    return true;
  }

  /// True iff `tid` still holds a live lease under the same tenure that
  /// produced `token`. Call immediately before a commit; a false return
  /// means the lease was lost (expired + re-elected, or revoked) and the
  /// commit must not happen.
  bool validate(std::uint32_t tid, std::uint64_t token) const {
    const std::uint64_t cur = hot_.lease.load(std::memory_order_acquire);
    if (static_cast<std::uint32_t>(cur >> 40) != tid) return false;
    if (!lease_live(now_ns(), cur & kTimeMask)) return false;
    return hot_.fence.load(std::memory_order_acquire) == token;
  }

  void release(std::uint32_t tid) {
    std::uint64_t cur = hot_.lease.load(std::memory_order_acquire);
    if (static_cast<std::uint32_t>(cur >> 40) == tid) {
      // acq_rel: release hands the critical-section writes to the next
      // acquirer through the freed word.
      hot_.lease.compare_exchange_strong(cur, kFreed,
                                         std::memory_order_acq_rel);
    }
  }

  /// Forcibly fence off `tid`'s lease (supervisor restart path: the old
  /// incarnation is dead; any token it captured must never validate
  /// again). Frees the lease if tid holds it and advances the fence.
  void revoke(std::uint32_t tid) {
    std::uint64_t cur = hot_.lease.load(std::memory_order_acquire);
    while (static_cast<std::uint32_t>(cur >> 40) == tid) {
      if (hot_.lease.compare_exchange_weak(cur, kFreed,
                                           std::memory_order_acq_rel)) {
        // acq_rel: the bump must be ordered after the free above and
        // visible before any reader can revalidate the dead token.
        hot_.fence.fetch_add(1, std::memory_order_acq_rel);
        return;
      }
    }
  }

  /// Current owner; kNoOwner when free (also when an expired owner is
  /// still in the word -- the lease is only *held* while live).
  std::uint32_t owner() const {
    const std::uint64_t cur = hot_.lease.load(std::memory_order_acquire);
    const auto raw = static_cast<std::uint32_t>(cur >> 40);
    if (raw == kNoOwner) return kNoOwner;
    return lease_live(now_ns(), cur & kTimeMask) ? raw : kNoOwner;
  }

  std::uint64_t fence() const {
    return hot_.fence.load(std::memory_order_acquire);
  }

  /// Attach an adaptive term calibrator (nullptr detaches; the fixed
  /// constructor term then rules again). Set before spawning threads or
  /// from a quiescent point -- the pointer itself is not synchronized.
  void set_calibrator(LeaseCalibrator* calibrator) {
    calibrator_ = calibrator;
  }

  /// Forward-jump suspicion threshold; 0 disables detection. Set from a
  /// quiescent point, like set_calibrator.
  void set_jump_suspect(std::uint64_t ns) { jump_suspect_ns_ = ns; }

  /// How many times try_lead refused a caller because its clock jumped.
  std::uint64_t jumps_detected() const {
    return jumps_detected_.load(std::memory_order_relaxed);
  }

  std::uint64_t current_term_ns() const {
    if (calibrator_ != nullptr) {
      const std::uint64_t t = calibrator_->term_ns();
      return t > kMaxTermNs ? kMaxTermNs : t;
    }
    return term_ns_;
  }

 private:
  static constexpr std::uint64_t kFreed =
      static_cast<std::uint64_t>(kNoOwner) << 40;

  static std::uint64_t clamp_term(std::chrono::nanoseconds term) {
    const auto ns = static_cast<std::uint64_t>(
        term.count() < 1 ? 1 : term.count());
    return ns > kMaxTermNs ? kMaxTermNs : ns;
  }

  /// Ring comparison on the 40-bit clock: live iff expiry is strictly
  /// ahead of now by less than half the ring. Handles expiry values
  /// that wrapped past 2^40 while now has not (and vice versa).
  static bool lease_live(std::uint64_t now, std::uint64_t expiry) {
    const std::uint64_t ahead = (expiry - now) & kTimeMask;
    return ahead != 0 && ahead < kHalfWindow;
  }

  static std::uint64_t steady_clock_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  std::uint64_t raw_clock() const {
    return clock_ != nullptr ? clock_() : steady_clock_ns();
  }

  /// Fold `raw` into the elector-wide high-water mark and return the
  /// clamped (monotone) reading. All orders relaxed: the mark is
  /// self-contained numeric state -- nothing is published through it,
  /// and a marginally stale maximum only makes the clamp marginally
  /// weaker for one read. A lost CAS race means someone stored an even
  /// larger value, which the reload picks up.
  std::uint64_t mono_clamp(std::uint64_t raw) const {
    std::uint64_t seen = last_raw_->load(std::memory_order_relaxed);
    while (raw > seen) {
      if (last_raw_->compare_exchange_weak(seen, raw,
                                           std::memory_order_relaxed)) {
        return raw;
      }
    }
    return seen;
  }

  std::uint64_t now_ns() const {
    return mono_clamp(raw_clock()) & kTimeMask;
  }

  /// The two contended words, isolated together on one line. They stay
  /// TOGETHER deliberately: every ownership transfer writes both and
  /// validate() reads both, so splitting them would double the line
  /// transfers per election; what must NOT share their line is the
  /// read-only configuration below (term, calibrator pointer, clock),
  /// which every try_lead reads and which would otherwise miss on each
  /// competitor's CAS.
  struct alignas(util::kCacheLineSize) HotWords {
    std::atomic<std::uint64_t> lease{kFreed};
    std::atomic<std::uint64_t> fence{0};
  };
  HotWords hot_;
  /// Unmasked clock high-water mark across every reader of this
  /// elector. Its own line: every try_lead/validate of every thread
  /// touches it, and it must not bounce the lease/fence line or sit on
  /// the read-only configuration below.
  mutable util::CachelinePadded<std::atomic<std::uint64_t>> last_raw_{0};
  std::atomic<std::uint64_t> jumps_detected_{0};
  std::uint64_t term_ns_;
  std::uint64_t jump_suspect_ns_ = kDefaultJumpSuspectNs;
  LeaseCalibrator* calibrator_ = nullptr;
  ClockFn clock_;
};

}  // namespace tbwf::rt

#include "core/tbwf_object.hpp"
#include "qa/sequential_type.hpp"
#include "rt/rt_qa.hpp"

namespace tbwf::rt {

/// core::TbwfObject's Leader on threads: a thread leads while it holds
/// a live lease, and backs off by exponentially more yields (up to 64)
/// until it wins one.
class LeaseLeader {
 public:
  LeaseLeader(int nthreads, std::chrono::nanoseconds lease_term)
      : elector_(lease_term), lost_(nthreads) {}

  /// Line 2: a live lease is the current tenure, so it validates at the
  /// current fence; the clock is read only if the word names the caller.
  bool leader_is_self(RtEnv& env) const {
    return elector_.validate(tid(env), elector_.fence());
  }
  /// Line 6: win the lease, or renew the one held.
  bool lead(RtEnv& env) {
    if (!elector_.try_lead(tid(env))) return false;
    *lost_[env.pid()] = 0;
    return true;
  }
  /// Lines 3 and 8: trying is candidacy; withdrawing frees the lease.
  void set_candidate(RtEnv& env, bool candidate) {
    if (!candidate) elector_.release(tid(env));
  }
  /// Backs off, then lets the caller go on at once.
  std::suspend_never back_off(RtEnv& env) {
    static const registers::BoundedBackoff kBackoff{
        {.base = 1, .cap = 64, .free_retries = 6}};
    const std::uint64_t yields = kBackoff.delay((*lost_[env.pid()])++);
    for (std::uint64_t i = 0; i < yields; ++i) std::this_thread::yield();
    return {};
  }

  LeaseElector& elector() { return elector_; }

 private:
  static std::uint32_t tid(const RtEnv& env) {
    return static_cast<std::uint32_t>(env.pid());
  }

  LeaseElector elector_;
  /// Waits since the thread last won the lease; thread t's slot only.
  std::vector<util::CachelinePadded<int>> lost_;
};

/// core::TbwfObject on threads. When the lease is lost mid-operation the
/// floating value is either adopted by the next leader or permanently
/// displaced, and the thread's next query resolves which.
template <qa::Sequential S>
class RtTbwfObject
    : public RtFront<core::TbwfObject<S, RtBase, LeaseLeader>> {
  using Front = RtFront<core::TbwfObject<S, RtBase, LeaseLeader>>;

 public:
  using typename Front::State;

  explicit RtTbwfObject(int nthreads, State initial,
                        std::chrono::nanoseconds lease_term =
                            std::chrono::microseconds(50))
      : Front(nthreads, std::move(initial), lease_term) {}

  /// The query-abortable object; inspect it only while no thread is
  /// operating.
  qa::QaUniversal<S, RtBase>& qa() { return this->inner_.qa(); }
  LeaseElector& elector() { return this->inner_.leader().elector(); }
};

}  // namespace tbwf::rt
