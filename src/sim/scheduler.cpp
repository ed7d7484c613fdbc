// The step-granting engine: World::step / advance / run.
#include "sim/env.hpp"
#include "sim/world.hpp"

namespace tbwf::sim {

bool World::step() {
  apply_due_faults();
  const Pid p = schedule_->next(*this);
  if (p == kNoPid) return false;
  TBWF_ASSERT(p >= 0 && p < n_, "schedule returned invalid pid");
  TBWF_ASSERT(runnable(p), "schedule returned a non-runnable pid");
  advance(p);
  return true;
}

void World::advance(Pid p) {
  auto& ps = procs_[p];

  // Fold in sub-tasks spawned outside of p's own steps.
  fold_newborn(ps);
  TBWF_ASSERT(!ps.subtasks.empty(), "advance on process with no sub-tasks");

  // This grant is one step of p.
  if (options_.track_accesses) last_accesses_.clear();
  current_step_ = trace_.now();
  trace_.record_step(p);
  ++ps.steps;
  current_pid_ = p;

  // Round-robin across p's sub-tasks: each step advances exactly one.
  if (ps.rr >= ps.subtasks.size()) ps.rr = 0;
  const std::size_t idx = ps.rr;
  ps.rr = (ps.rr + 1) % ps.subtasks.size();

  detail::SubTask& st = ps.subtasks[idx];
  current_subtask_ = &st;

  if (st.has_pending()) {
    // Response step: decide the pending operation's outcome, then resume
    // the coroutine with the result. The coroutine may run local code
    // and invoke its next operation within this same resumption -- that
    // is fine: the next operation's interval opens at this step and its
    // response will consume a future step.
    complete_pending(st);
  }
  // A completion that opened the sub-task's next operation itself (a
  // chained read pass) keeps the coroutine suspended until that one
  // responds.
  if (!st.has_pending()) resume_subtask(st);

  current_subtask_ = nullptr;
  current_pid_ = kNoPid;

  if (st.task.done()) {
    ps.subtasks.erase(ps.subtasks.begin() +
                      static_cast<std::ptrdiff_t>(idx));
    if (ps.rr > idx) --ps.rr;
  }

  // Fold in sub-tasks spawned during this step.
  fold_newborn(ps);

  for (auto& observer : step_observers_) observer(current_step_, p);
}

void World::fold_newborn(detail::ProcessState& ps) {
  for (detail::SubTask& st : ps.newborn) ps.subtasks.push_back(std::move(st));
  ps.newborn.clear();
}

void World::resume_subtask(detail::SubTask& st) {
  TBWF_ASSERT(st.resume_handle && !st.resume_handle.done(),
              "resuming a finished frame");
  st.resume_handle.resume();
  // Exceptions from any depth of the call stack propagate into the
  // top-level Task's promise via Co<T>::await_resume rethrows.
  if (st.task.done()) {
    auto& promise = st.task.handle().promise();
    if (promise.exception) {
      auto ex = std::exchange(promise.exception, nullptr);
      try {
        std::rethrow_exception(ex);
      } catch (const StopRequested&) {
        // clean shutdown of a `repeat forever` loop
      }
    }
  }
}

Step World::run(Step max_steps) {
  Step taken = 0;
  while (taken < max_steps && step()) ++taken;
  return taken;
}

bool World::run_until(const std::function<bool()>& pred, Step max_steps,
                      Step check_every) {
  TBWF_ASSERT(check_every >= 1, "check_every must be positive");
  Step taken = 0;
  while (taken < max_steps) {
    for (Step i = 0; i < check_every && taken < max_steps; ++i) {
      if (!step()) return pred();
      ++taken;
    }
    if (pred()) return true;
  }
  return pred();
}

}  // namespace tbwf::sim
