#include "sim/world.hpp"

#include <algorithm>

#include "sim/env.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"

namespace tbwf::sim {

World::World(int n, std::unique_ptr<Schedule> schedule, Options options)
    : n_(n),
      schedule_(std::move(schedule)),
      options_(options),
      trace_(n),
      aux_rng_(options.seed) {
  TBWF_ASSERT(n >= 1, "world needs at least one process");
  TBWF_ASSERT(schedule_ != nullptr, "world needs a schedule");
  // A step completes at most one operation and opens at most one.
  if (options_.track_accesses) last_accesses_.reserve(2);
  procs_.resize(static_cast<std::size_t>(n));
  envs_.reserve(static_cast<std::size_t>(n));
  for (Pid p = 0; p < n; ++p) {
    procs_[p].pid = p;
    envs_.emplace_back(this, p);
  }
}

World::~World() = default;

bool World::runnable(Pid p) const {
  TBWF_ASSERT(p >= 0 && p < n_, "pid out of range");
  const auto& ps = procs_[p];
  return !ps.crashed && (!ps.subtasks.empty() || !ps.newborn.empty());
}

bool World::has_pending_op(Pid p) const {
  TBWF_ASSERT(p >= 0 && p < n_, "pid out of range");
  const auto& ps = procs_[p];
  for (const auto& st : ps.subtasks) {
    if (st.has_pending()) return true;
  }
  for (const auto& st : ps.newborn) {
    if (st.has_pending()) return true;
  }
  return false;
}

SimEnv& World::env(Pid p) {
  TBWF_ASSERT(p >= 0 && p < n_, "pid out of range");
  return envs_[p];
}

void World::boot_subtask(detail::ProcessState& ps, const std::string& name,
                         detail::SpawnFactory factory) {
  detail::SubTask st;
  st.task = (*factory)(envs_[ps.pid]);
  st.factory = std::move(factory);
  st.name = name;
  TBWF_ASSERT(st.task.valid(), "spawn factory returned an empty task");
  st.resume_handle = st.task.handle();
  // If the process is currently mid-step, appending directly to
  // `subtasks` could reallocate under the running advance(); park
  // newborns instead.
  if (current_pid_ == ps.pid && current_subtask_ != nullptr) {
    ps.newborn.push_back(std::move(st));
  } else {
    ps.subtasks.push_back(std::move(st));
  }
}

void World::spawn(Pid p, std::string name,
                  std::function<Task(SimEnv&)> factory) {
  TBWF_ASSERT(p >= 0 && p < n_, "pid out of range");
  auto& ps = procs_[p];
  TBWF_ASSERT(!ps.crashed, "cannot spawn on a crashed process");
  auto stored = std::make_shared<const std::function<Task(SimEnv&)>>(
      std::move(factory));
  boot_subtask(ps, name, stored);
  // Root sub-tasks (spawned from outside any step, i.e. the process
  // bring-up code) are what restart() re-creates; sub-tasks spawned from
  // inside a running coroutine are that coroutine's children and will be
  // re-created by their respawned parent.
  if (current_subtask_ == nullptr) {
    ps.boot.push_back(detail::BootRecord{std::move(name), std::move(stored)});
  }
}

void World::schedule_crash(Pid p, Step at) {
  pending_faults_.push_back(detail::PendingFault{at, /*restart=*/false, p});
  std::sort(pending_faults_.begin(), pending_faults_.end());
}

void World::schedule_restart(Pid p, Step at) {
  pending_faults_.push_back(detail::PendingFault{at, /*restart=*/true, p});
  std::sort(pending_faults_.begin(), pending_faults_.end());
}

void World::restart(Pid p) {
  TBWF_ASSERT(p >= 0 && p < n_, "pid out of range");
  auto& ps = procs_[p];
  if (!ps.crashed) return;
  ps.crashed = false;
  ps.rr = 0;
  trace_.record_restart(p);
  counters_.inc("world.restarts");
  for (const auto& record : ps.boot) {
    boot_subtask(ps, record.name, record.factory);
  }
}

void World::crash(Pid p) {
  TBWF_ASSERT(p >= 0 && p < n_, "pid out of range");
  auto& ps = procs_[p];
  if (ps.crashed) return;
  ps.crashed = true;
  trace_.record_crash(p);
  counters_.inc("world.crashes");

  // Settle operations that were pending at the moment of the crash: the
  // operation never responds, its interval ends here, and for writes the
  // policy decides whether the value reached the register.
  auto settle = [&](detail::SubTask& st) {
    if (!st.has_pending()) return;
    auto* cell = st.pending_cell;
    const detail::ActiveOp& op = st.pending_completion->interval;
    registers::OpContext ctx;
    ctx.pid = p;
    ctx.is_write = op.is_write;
    ctx.invoked_at = op.invoked_at;
    ctx.responded_at = now();
    ctx.reg = cell->idx;
    ctx.any_overlap_write = op.saw_overlap_write;
    st.pending_completion->settle_crash(*this, ctx);
    unlink_op(cell, st.pending_completion->interval);
    st.pending_cell = nullptr;
    st.pending_is_write = false;
    st.pending_completion = nullptr;
  };
  for (auto& st : ps.subtasks) settle(st);
  for (auto& st : ps.newborn) settle(st);

  // Destroying the Task objects destroys the suspended coroutine frames
  // (and the awaiters inside them) -- safe now that no cell refers to them.
  ps.subtasks.clear();
  ps.newborn.clear();
}

void World::apply_due_faults() {
  // pending_faults_ is kept sorted by (step, crash-before-restart, pid),
  // so same-step events apply in a fixed order no matter what order they
  // were scheduled in -- runs replay identically.
  while (!pending_faults_.empty() && pending_faults_.front().at <= now()) {
    const auto fault = pending_faults_.front();
    pending_faults_.erase(pending_faults_.begin());
    if (fault.restart) {
      restart(fault.pid);
    } else {
      crash(fault.pid);
    }
  }
}

void World::begin_op(detail::RegCellBase* cell, bool is_write,
                     detail::OpCompletion* completion) {
  TBWF_ASSERT(current_subtask_ != nullptr,
              "register operation outside of a scheduled step");
  TBWF_ASSERT(!current_subtask_->has_pending(),
              "sub-task already has a pending operation");
  const Pid p = current_pid_;

  if (cell->kind == RegKind::Abortable) {
    if (is_write) {
      TBWF_CHECK(cell->writer == kNoPid || cell->writer == p,
                 "process " + std::to_string(p) +
                     " is not the designated writer of " + cell->name);
    } else {
      TBWF_CHECK(cell->reader == kNoPid || cell->reader == p,
                 "process " + std::to_string(p) +
                     " is not the designated reader of " + cell->name);
    }
  }

  detail::ActiveOp& op = completion->interval;
  op = detail::ActiveOp{};
  op.pid = p;
  op.is_write = is_write;
  op.invoked_at = current_step_;
  op.saw_overlap = cell->active != nullptr;
  for (detail::ActiveOp* other = cell->active; other != nullptr;
       other = other->next) {
    other->saw_overlap = true;
    if (is_write) other->saw_overlap_write = true;
    if (other->is_write) op.saw_overlap_write = true;
  }
  op.next = cell->active;
  cell->active = &op;

  current_subtask_->pending_cell = cell;
  current_subtask_->pending_is_write = is_write;
  current_subtask_->pending_completion = completion;

  if (options_.track_accesses) {
    last_accesses_.push_back(StepAccess{cell->idx, is_write,
                                        /*invocation=*/true,
                                        cell->kind == RegKind::Atomic});
  }
}

void World::unlink_op(detail::RegCellBase* cell, detail::ActiveOp& op) {
  detail::ActiveOp** link = &cell->active;
  while (*link != &op) {
    TBWF_ASSERT(*link != nullptr, "pending op missing from cell");
    link = &(*link)->next;
  }
  *link = op.next;
}

void World::complete_pending(detail::SubTask& st) {
  auto* cell = st.pending_cell;
  auto* completion = st.pending_completion;
  const detail::ActiveOp& op = completion->interval;

  registers::OpContext ctx;
  ctx.pid = op.pid;
  ctx.is_write = op.is_write;
  ctx.invoked_at = op.invoked_at;
  ctx.responded_at = current_step_;
  ctx.reg = cell->idx;
  ctx.any_overlap_write = op.saw_overlap_write;
  const bool overlapped = op.saw_overlap;
  unlink_op(cell, completion->interval);

  st.pending_cell = nullptr;
  st.pending_is_write = false;
  st.pending_completion = nullptr;

  if (options_.track_accesses) {
    last_accesses_.push_back(StepAccess{cell->idx, ctx.is_write,
                                        /*invocation=*/false,
                                        /*inert=*/false});
  }

  completion->complete(*this, ctx, overlapped);
}

std::uint64_t World::process_signature(Pid p) const {
  TBWF_ASSERT(p >= 0 && p < n_, "pid out of range");
  const auto& ps = procs_[p];
  std::uint64_t h = util::kFnvOffset;
  h = util::hash_mix(h, ps.crashed);
  h = util::hash_mix(h, ps.rr);
  const auto fold = [&](const detail::SubTask& st) {
    h = util::hash_mix(h, st.has_pending());
    if (st.has_pending()) {
      h = util::hash_mix(h, st.pending_cell->idx);
      h = util::hash_mix(h, st.pending_is_write);
    }
  };
  h = util::hash_mix(h, ps.subtasks.size() + ps.newborn.size());
  for (const auto& st : ps.subtasks) fold(st);
  for (const auto& st : ps.newborn) fold(st);
  return h;
}

void World::note_write_effect(std::uint32_t reg_idx, Pid pid) {
  if (options_.log_writes) {
    write_log_.push_back(WriteEvent{current_step_, pid, reg_idx});
  }
}

void World::note_read(bool aborted, detail::RegCellBase* cell) {
  ++total_reads_;
  ++cell->n_reads;
  if (aborted) {
    ++total_read_aborts_;
    ++cell->n_read_aborts;
  }
}

void World::note_write(bool aborted, detail::RegCellBase* cell) {
  ++total_writes_;
  ++cell->n_writes;
  if (aborted) {
    ++total_write_aborts_;
    ++cell->n_write_aborts;
  }
}

}  // namespace tbwf::sim
