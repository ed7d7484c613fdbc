// World: the deterministic shared-memory system simulator.
//
// A World owns n processes, the shared registers, the schedule (the
// adversary choosing who steps), and the run trace. One call to step()
// advances exactly one process by exactly one step:
//
//   - a *local* step: resume one of the process's sub-task coroutines,
//     which runs local code until its next co_await;
//   - an *invocation* step: the resumed coroutine reached a register
//     operation; the operation's interval opens at the end of this step
//     and the coroutine suspends;
//   - a *response* step: the process's pending operation completes (its
//     outcome decided now, with full knowledge of which operations
//     overlapped it) and the coroutine resumes with the result.
//
// This matches the paper's Section 3 model: in each step a process
// invokes an operation, receives a response, or takes a local step; at
// most one step per time unit; a register operation spans at least two
// distinct steps of its caller, so operations of different processes can
// genuinely overlap -- which is what "concurrent" means for abortable
// registers.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "registers/abort_policy.hpp"
#include "sim/schedule.hpp"
#include "sim/co.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"
#include "util/assert.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace tbwf::sim {

class World;
class SimEnv;

// ---------------------------------------------------------------------------
// Typed register handles. The type parameter is compile-time only; the
// handle itself is a cheap index into the world's register arena.
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kInvalidReg = 0xFFFFFFFFu;

template <class T>
struct AtomicReg {
  std::uint32_t idx = kInvalidReg;
  bool valid() const { return idx != kInvalidReg; }
};

template <class T>
struct SafeReg {
  std::uint32_t idx = kInvalidReg;
  bool valid() const { return idx != kInvalidReg; }
};

template <class T>
struct AbortableReg {
  std::uint32_t idx = kInvalidReg;
  bool valid() const { return idx != kInvalidReg; }
};

// ---------------------------------------------------------------------------
// Internal register-cell representation.
// ---------------------------------------------------------------------------

namespace detail {

/// One open operation interval, linked into its register's active list
/// from the invocation step until the response step (or the crash of
/// its process).
struct ActiveOp {
  Pid pid = kNoPid;
  bool is_write = false;
  Step invoked_at = 0;
  bool saw_overlap = false;
  bool saw_overlap_write = false;
  ActiveOp* next = nullptr;  ///< next open operation on the same register
};

/// Completion interface implemented by the register-operation awaiters.
/// The awaiter object lives in the suspended coroutine frame, so it is
/// stable while the operation is pending -- and so is the interval it
/// carries, which is why opening an operation allocates nothing.
struct OpCompletion {
  virtual ~OpCompletion() = default;
  /// Decide the operation's outcome and apply any effect. `overlapped`
  /// is true iff some other operation's interval intersected this one.
  /// It may open the sub-task's next operation (World::begin_op, with
  /// itself as that operation's completion): the coroutine then stays
  /// suspended, and the new interval opens at this response step.
  virtual void complete(World& world, const registers::OpContext& ctx,
                        bool overlapped) = 0;
  /// The owning process crashed while the operation was pending.
  virtual void settle_crash(World& world, const registers::OpContext& ctx) = 0;

  ActiveOp interval;
};

struct RegCellBase {
  RegKind kind = RegKind::Atomic;
  std::string name;
  std::uint32_t idx = kInvalidReg;
  /// SWSR constraints for abortable registers; kNoPid = unconstrained.
  Pid writer = kNoPid;
  Pid reader = kNoPid;
  registers::AbortPolicy* policy = nullptr;

  /// Open operations on this register, newest first.
  ActiveOp* active = nullptr;

  // Per-register statistics (E5 / E6 benches read these).
  std::uint64_t n_reads = 0;
  std::uint64_t n_writes = 0;
  std::uint64_t n_read_aborts = 0;
  std::uint64_t n_write_aborts = 0;

  virtual ~RegCellBase() = default;
};

template <class T>
struct RegCell final : RegCellBase {
  explicit RegCell(T init) : value(init), prev_value(std::move(init)) {}
  T value;
  /// Value before the most recent effectful write. A Stale read fault
  /// (ReadOutcome::Stale) serves this instead of `value`, modeling a
  /// register whose read window lags one write behind.
  T prev_value;
};

/// A spawn factory, held at a stable heap address: a coroutine lambda's
/// frame reads its captures through the lambda object, so the factory
/// must outlive every sub-task it booted.
using SpawnFactory = std::shared_ptr<const std::function<Task(SimEnv&)>>;

struct SubTask {
  /// Declared before `task` so the frame dies first.
  SpawnFactory factory;
  Task task;
  std::string name;
  /// The deepest suspended coroutine in this sub-task's call stack; the
  /// frame the next granted step resumes. Top-level handle initially;
  /// every awaiter updates it on suspension.
  std::coroutine_handle<> resume_handle;
  RegCellBase* pending_cell = nullptr;
  bool pending_is_write = false;
  OpCompletion* pending_completion = nullptr;

  bool has_pending() const { return pending_completion != nullptr; }
};

/// A root sub-task's recipe, kept so World::restart can boot the process
/// again with fresh coroutine frames (the crash destroyed the old ones).
struct BootRecord {
  std::string name;
  SpawnFactory factory;
};

struct ProcessState {
  Pid pid = kNoPid;
  bool crashed = false;
  Step steps = 0;  ///< local step count
  std::size_t rr = 0;
  std::vector<SubTask> subtasks;
  /// Sub-tasks spawned while this process is mid-step; folded into
  /// `subtasks` after the current resumption returns, so the running
  /// sub-task's slot in `subtasks` never moves under it.
  std::vector<SubTask> newborn;
  /// Recipes of the root sub-tasks (spawned from outside any step);
  /// re-invoked by World::restart. Child sub-tasks spawned from inside
  /// coroutines are not recorded -- their parents re-create them.
  std::vector<BootRecord> boot;
};

/// A scheduled crash or restart, applied at the start of the step whose
/// index reaches `at`. Events due at the same step apply in a fixed
/// order -- crashes before restarts, then ascending pid -- regardless of
/// the order schedule_crash / schedule_restart were called in.
struct PendingFault {
  Step at = 0;
  bool restart = false;
  Pid pid = kNoPid;

  friend bool operator<(const PendingFault& a, const PendingFault& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.restart != b.restart) return !a.restart;
    return a.pid < b.pid;
  }
};

}  // namespace detail

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

struct WorldOptions {
  /// Record every successful register write in write_log() -- used by
  /// the write-efficiency experiment (E5).
  bool log_writes = false;
  /// Record the register accesses of each step in last_step_accesses()
  /// -- used by the schedule explorer's independence-based reduction.
  /// Off by default: the sweeps and benches do not pay for the clears.
  bool track_accesses = false;
  /// Seed for the world's auxiliary randomness (safe-register garbage).
  std::uint64_t seed = 1;
};

/// One register touch made by a step (verify/explorer reduction input).
/// `invocation` marks the interval-opening half of an operation; on an
/// Atomic register that half has no observable effect (atomic outcomes
/// ignore overlap), so the explorer treats it as commuting with
/// everything -- the `inert` flag.
struct StepAccess {
  std::uint32_t reg = kInvalidReg;
  bool write = false;
  bool invocation = false;
  bool inert = false;
};

class World final : public WorldView {
 public:
  using Options = WorldOptions;

  struct WriteEvent {
    Step step;
    Pid pid;
    std::uint32_t reg;
  };

  World(int n, std::unique_ptr<Schedule> schedule,
        Options options = Options());
  ~World() override;
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // -- WorldView ------------------------------------------------------------
  Step now() const override { return trace_.now(); }
  int n() const override { return n_; }
  bool runnable(Pid p) const override;
  bool has_pending_op(Pid p) const override;

  // -- register construction -------------------------------------------------
  template <class T>
  AtomicReg<T> make_atomic(std::string name, T init) {
    auto* cell = add_cell<T>(RegKind::Atomic, std::move(name),
                             std::move(init));
    return AtomicReg<T>{cell->idx};
  }

  template <class T>
  SafeReg<T> make_safe(std::string name, T init) {
    auto* cell = add_cell<T>(RegKind::Safe, std::move(name), std::move(init));
    return SafeReg<T>{cell->idx};
  }

  /// policy must outlive the world. writer/reader restrict access
  /// (single-writer single-reader as used throughout Section 6);
  /// kNoPid leaves the corresponding side unconstrained (MWMR).
  template <class T>
  AbortableReg<T> make_abortable(std::string name, T init,
                                 registers::AbortPolicy* policy,
                                 Pid writer = kNoPid, Pid reader = kNoPid) {
    TBWF_ASSERT(policy != nullptr, "abortable register needs a policy");
    auto* cell = add_cell<T>(RegKind::Abortable, std::move(name),
                             std::move(init));
    cell->policy = policy;
    cell->writer = writer;
    cell->reader = reader;
    return AbortableReg<T>{cell->idx};
  }

  /// Direct (non-step) access to a register's current value; for tests,
  /// checkers and benches only -- simulated processes must go through
  /// their SimEnv.
  template <class T>
  const T& peek(std::uint32_t idx) const {
    return typed_cell<T>(idx)->value;
  }
  template <class T>
  const T& peek(AtomicReg<T> r) const { return peek<T>(r.idx); }
  template <class T>
  const T& peek(SafeReg<T> r) const { return peek<T>(r.idx); }
  template <class T>
  const T& peek(AbortableReg<T> r) const { return peek<T>(r.idx); }

  const detail::RegCellBase& cell_info(std::uint32_t idx) const {
    return *cells_.at(idx);
  }
  std::size_t register_count() const { return cells_.size(); }

  // -- processes --------------------------------------------------------------
  SimEnv& env(Pid p);

  /// Add a sub-task to process p. The factory is invoked immediately; the
  /// coroutine starts lazily on p's first granted step. Safe to call
  /// while the world is running (e.g. from inside another coroutine).
  void spawn(Pid p, std::string name, std::function<Task(SimEnv&)> factory);

  void crash(Pid p);
  void schedule_crash(Pid p, Step at);
  /// Revive a crashed process: its pending operation was already settled
  /// by crash(); restart re-boots every root sub-task with a fresh
  /// coroutine frame (shared registers keep their values -- recovery is
  /// from shared state, not from the lost local state). No-op if p is
  /// not currently crashed.
  void restart(Pid p);
  void schedule_restart(Pid p, Step at);
  bool crashed(Pid p) const { return procs_[p].crashed; }
  Step local_steps(Pid p) const { return procs_[p].steps; }

  // -- execution ---------------------------------------------------------------
  /// One global step. Returns false if the schedule declined (nobody
  /// runnable or script exhausted).
  bool step();

  /// Run up to max_steps; returns the number of steps actually taken.
  Step run(Step max_steps);

  /// Run until pred() holds (checked every `check_every` steps) or
  /// max_steps elapse; returns true iff pred() held.
  bool run_until(const std::function<bool()>& pred, Step max_steps,
                 Step check_every = 64);

  // -- observability -----------------------------------------------------------
  const Trace& trace() const { return trace_; }

  /// Observers run after every completed step (step index, stepping pid).
  /// Spec checkers use them to sample algorithm outputs over model time.
  using StepObserver = std::function<void(Step, Pid)>;
  void add_step_observer(StepObserver observer) {
    step_observers_.push_back(std::move(observer));
  }

  util::Counters& counters() { return counters_; }
  const std::vector<WriteEvent>& write_log() const { return write_log_; }

  /// Register accesses made by the most recently completed step; empty
  /// unless Options::track_accesses is set.
  const std::vector<StepAccess>& last_step_accesses() const {
    return last_accesses_;
  }

  /// Digest of process p's scheduling-relevant control state: crash
  /// flag, sub-task count, round-robin cursor, and each sub-task's
  /// pending-operation signature (register + direction). The explorer
  /// folds this into its state fingerprints; register *contents* are the
  /// harness's responsibility (it knows the types).
  std::uint64_t process_signature(Pid p) const;

  std::uint64_t total_reads() const { return total_reads_; }
  std::uint64_t total_writes() const { return total_writes_; }
  std::uint64_t total_read_aborts() const { return total_read_aborts_; }
  std::uint64_t total_write_aborts() const { return total_write_aborts_; }

  // -- internal API used by the awaiters in env.hpp ------------------------------
  /// Open an operation interval on `cell` for the currently-stepping
  /// sub-task. Called from OpAwaiter::await_suspend.
  void begin_op(detail::RegCellBase* cell, bool is_write,
                detail::OpCompletion* completion);

  template <class T>
  detail::RegCell<T>* typed_cell(std::uint32_t idx) {
    TBWF_ASSERT(idx < cells_.size(), "register index out of range");
    auto* cell = static_cast<detail::RegCell<T>*>(cells_[idx].get());
    return cell;
  }
  template <class T>
  const detail::RegCell<T>* typed_cell(std::uint32_t idx) const {
    TBWF_ASSERT(idx < cells_.size(), "register index out of range");
    return static_cast<const detail::RegCell<T>*>(cells_[idx].get());
  }

  util::Rng& aux_rng() { return aux_rng_; }
  Pid current_pid() const { return current_pid_; }
  Step current_step() const { return current_step_; }

  /// Record the frame to resume on this sub-task's next step; called by
  /// every awaiter from await_suspend.
  void set_resume_handle(std::coroutine_handle<> h) {
    TBWF_ASSERT(current_subtask_ != nullptr,
                "suspension outside of a scheduled step");
    current_subtask_->resume_handle = h;
  }

  void note_write_effect(std::uint32_t reg_idx, Pid pid);
  void note_read(bool aborted, detail::RegCellBase* cell);
  void note_write(bool aborted, detail::RegCellBase* cell);

 private:
  template <class T>
  detail::RegCell<T>* add_cell(RegKind kind, std::string name, T init) {
    auto cell = std::make_unique<detail::RegCell<T>>(std::move(init));
    cell->kind = kind;
    cell->name = std::move(name);
    cell->idx = static_cast<std::uint32_t>(cells_.size());
    auto* raw = cell.get();
    cells_.push_back(std::move(cell));
    return raw;
  }

  void advance(Pid p);
  /// Append p's parked newborns to its sub-tasks, in spawn order.
  void fold_newborn(detail::ProcessState& ps);
  void resume_subtask(detail::SubTask& st);
  void complete_pending(detail::SubTask& st);
  /// Take `op` out of `cell`'s active list.
  static void unlink_op(detail::RegCellBase* cell, detail::ActiveOp& op);
  void apply_due_faults();
  void boot_subtask(detail::ProcessState& ps, const std::string& name,
                    detail::SpawnFactory factory);

  int n_;
  std::unique_ptr<Schedule> schedule_;
  Options options_;
  Trace trace_;
  util::Counters counters_;
  util::Rng aux_rng_;

  /// Sized once by the constructor; never grows.
  std::vector<detail::ProcessState> procs_;
  /// One per process, built in the constructor at fixed addresses
  /// (coroutines hold references to them).
  std::vector<SimEnv> envs_;
  std::vector<std::unique_ptr<detail::RegCellBase>> cells_;
  std::vector<detail::PendingFault> pending_faults_;
  std::vector<StepObserver> step_observers_;

  std::vector<WriteEvent> write_log_;
  std::vector<StepAccess> last_accesses_;
  std::uint64_t total_reads_ = 0;
  std::uint64_t total_writes_ = 0;
  std::uint64_t total_read_aborts_ = 0;
  std::uint64_t total_write_aborts_ = 0;

  Pid current_pid_ = kNoPid;
  Step current_step_ = 0;
  detail::SubTask* current_subtask_ = nullptr;
};

}  // namespace tbwf::sim
