// Handwritten register-based ledger/map -- the specialist twin of
// QaUniversal<LedgerType>.
//
// One single-writer append-only log per process. put(k, v) collects
// all logs, picks ts = (max timestamp seen) + 1, and appends
// {k, v, ts} to its own log with a single write; get(k) collects all
// logs and returns the binding with the lexicographically greatest
// (ts, pid). Both operations are one or two collects plus at most one
// write -- wait-free point reads and writes with O(n) register
// operations, no helping needed because logs are append-only and
// single-writer.
//
// Linearizability sketch: between two non-overlapping puts the later
// one collects the earlier one's entry, so its ts is strictly larger
// -- (ts, pid) order extends the real-time order, ties arise only
// between overlapping puts and are broken consistently for every
// reader. A get linearizes at its last collect read.
//
// Written over a base-register policy (zoo/specialist.hpp): on atomic
// registers it never answers bottom; on abortable ones an aborted read
// answers bottom with fate F, and an aborted entry write is parked until
// it lands. The collects are loops in invoke itself, so an operation
// runs in one coroutine frame.
//
// Mutation seam: stale_ts makes put skip the collect and use a
// process-local counter -- two *sequential* puts by different
// processes can then order newest-first, which the Wing-Gong oracle
// flags as non-linearizable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "qa/qa_object.hpp"
#include "qa/qa_universal.hpp"
#include "registers/abort_policy.hpp"
#include "sim/co.hpp"
#include "util/hash.hpp"
#include "zoo/specialist.hpp"
#include "zoo/zoo_types.hpp"

namespace tbwf::zoo {

struct LedgerMutations {
  /// put uses a process-local timestamp instead of a fresh collect.
  bool stale_ts = false;
};

template <class Base = qa::AtomicBase>
class WfLedger {
 public:
  using S = LedgerType;
  using State = S::State;
  using Op = S::Op;
  using Result = S::Result;
  using Response = qa::QaResponse<Result>;
  using Env = typename Base::Env;
  using Home = typename Base::Home;

  WfLedger(Home& home, State initial,
           registers::AbortPolicy* policy = nullptr)
      : home_(home), n_(Base::n(home)), slices_(n_) {
    Log genesis;
    // Pre-existing bindings (the spec's initial log) live in a
    // virtual log owned by no process, replicated into p0's genesis.
    for (std::size_t i = 0; i + 1 < initial.size(); i += 2) {
      genesis.entries.push_back(
          Entry{initial[i], initial[i + 1], 0});
    }
    logs_.reserve(n_);
    for (sim::Pid p = 0; p < n_; ++p) {
      logs_.push_back(Base::template make<Log>(
          home, "zoo.ledger.log." + std::to_string(p),
          p == 0 ? genesis : Log{}, policy, p));
    }
  }

  void set_mutations(LedgerMutations m) { mut_ = m; }

  sim::Co<Response> invoke(Env& env, Op op) {
    const sim::Pid p = env.pid();
    Slice& me = slices_[p];
    me.op_digest = util::kFnvOffset;
    if (!co_await land_parked<Base>(env, logs_[p], me)) co_return me.abort();
    if (op.is_put) {
      std::uint64_t ts;
      if (mut_.stale_ts) {
        ts = ++me.local_ts;
      } else {
        std::uint64_t max_ts = 0;
        for (sim::Pid q = 0; q < n_; ++q) {
          const std::optional<Log> log = co_await read(env, q);
          if (!log) co_return me.abort();
          fold_read(me, *log);
          for (const Entry& e : log->entries) {
            if (e.ts > max_ts) max_ts = e.ts;
          }
        }
        ts = max_ts + 1;
      }
      std::optional<Log> mine = co_await read(env, p);
      if (!mine) co_return me.abort();
      fold_read(me, *mine);
      mine->entries.push_back(Entry{op.key, op.value, ts});
      if (!co_await write(env, p, *mine)) {
        // Readers may already see the entry: it must land.
        co_return me.park(std::move(*mine), Response::make_ok(op.value));
      }
      co_return me.finish(Response::make_ok(op.value));
    }
    std::int64_t value = S::kAbsent;
    std::uint64_t best_ts = 0;
    sim::Pid best_pid = -1;
    for (sim::Pid q = 0; q < n_; ++q) {
      const std::optional<Log> log = co_await read(env, q);
      if (!log) co_return me.abort();
      fold_read(me, *log);
      for (const Entry& e : log->entries) {
        if (e.key != op.key) continue;
        if (value == S::kAbsent || e.ts > best_ts ||
            (e.ts == best_ts && q > best_pid)) {
          value = e.value;
          best_ts = e.ts;
          best_pid = q;
        }
      }
    }
    co_return me.finish(Response::make_ok(value));
  }

  sim::Co<Response> query(Env& env) {
    const sim::Pid p = env.pid();
    return query_fate<Base>(env, logs_[p], slices_[p]);
  }

  /// Quiescent-only: replay all entries in (ts, pid) order through the
  /// spec to obtain the abstract append log.
  State abstract_state() const {
    std::vector<std::pair<sim::Pid, Entry>> all;
    for (sim::Pid p = 0; p < n_; ++p) {
      for (const Entry& e : peek(p).entries) all.emplace_back(p, e);
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      return a.second.ts != b.second.ts ? a.second.ts < b.second.ts
                                        : a.first < b.first;
    });
    State state;
    for (const auto& tagged : all) {
      state.push_back(tagged.second.key);
      state.push_back(tagged.second.value);
    }
    return state;
  }

  std::uint64_t fingerprint() const {
    std::uint64_t h = util::kFnvOffset;
    for (sim::Pid p = 0; p < n_; ++p) h = fold_log(h, peek(p));
    // Keep in-flight ops with different partial collects distinct under
    // explorer state caching (continuations are a function of values
    // read so far in the current op).
    for (const Slice& me : slices_) h = util::hash_mix(h, me.op_digest);
    for (const Slice& me : slices_) h = me.fold_parked(h, fold_log);
    return h;
  }

  int n() const { return n_; }

 private:
  struct Entry {
    std::int64_t key = 0;
    std::int64_t value = 0;
    std::uint64_t ts = 0;
  };
  struct Log {
    std::vector<Entry> entries;
  };
  struct Slice : SpecialistSlice<Log, Result> {
    std::uint64_t local_ts = 0;  ///< the stale_ts mutant's counter
  };

  auto read(Env& env, sim::Pid q) {
    return Base::template read<Log>(env, logs_[static_cast<std::size_t>(q)]);
  }
  /// The caller keeps `log`, to park it if the write aborts.
  auto write(Env& env, sim::Pid q, const Log& log) {
    return Base::template write<Log>(env, logs_[static_cast<std::size_t>(q)],
                                     log);
  }
  decltype(auto) peek(sim::Pid q) const {
    return Base::template peek<Log>(home_, logs_[static_cast<std::size_t>(q)]);
  }

  static std::uint64_t fold_log(std::uint64_t h, const Log& log) {
    h = util::hash_mix(h, log.entries.size());
    for (const Entry& e : log.entries) {
      h = util::hash_mix(h, e.key);
      h = util::hash_mix(h, e.value);
      h = util::hash_mix(h, e.ts);
    }
    return h;
  }
  static void fold_read(Slice& me, const Log& log) {
    if constexpr (Base::kExplored) me.op_digest = fold_log(me.op_digest, log);
  }

  Home& home_;
  int n_;
  std::vector<typename Base::template Reg<Log>> logs_;
  std::vector<Slice> slices_;
  LedgerMutations mut_;
};

}  // namespace tbwf::zoo
