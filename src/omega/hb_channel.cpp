#include "omega/hb_channel.hpp"

#include <algorithm>
#include <limits>

namespace tbwf::omega {

std::vector<HbEndpoint> make_hb_mesh(sim::World& world,
                                     registers::AbortPolicy* policy,
                                     const std::string& prefix,
                                     const LinkHealthOptions& health) {
  const int n = world.n();
  std::vector<HbEndpoint> endpoints(n);
  for (sim::Pid p = 0; p < n; ++p) endpoints[p].init(n, p, health);
  for (sim::Pid p = 0; p < n; ++p) {
    for (sim::Pid q = 0; q < n; ++q) {
      if (p == q) continue;
      // Appended rather than chained with operator+, which trips a GCC 12
      // -Wrestrict false positive inside libstdc++.
      std::string pair = "[";
      pair.append(std::to_string(p)).append(",").append(std::to_string(q));
      pair.append("]");
      auto r1 = world.make_abortable<HbStamp>(prefix + "1" + pair,
                                              HbStamp::make(0), policy,
                                              /*writer=*/p, /*reader=*/q);
      auto r2 = world.make_abortable<HbStamp>(prefix + "2" + pair,
                                              HbStamp::make(0), policy,
                                              /*writer=*/p, /*reader=*/q);
      endpoints[p].out1[q] = r1;
      endpoints[p].out2[q] = r2;
      endpoints[q].in1[p] = r1;
      endpoints[q].in2[p] = r2;
    }
  }
  return endpoints;
}

// Figure 5, lines 20-25.
sim::Co<void> send_heartbeat(sim::SimEnv& env, HbEndpoint& ep,
                             const std::vector<bool>& dest) {
  const int n = env.n();
  ++ep.send_counter;                                              // line 21
  const HbStamp stamp = HbStamp::make(ep.send_counter);
  for (sim::Pid q = 0; q < n; ++q) {                              // line 22
    if (q == ep.self || !dest[q]) continue;                       // line 23
    const bool ok1 = co_await env.write(ep.out1[q], stamp);       // line 24
    const bool ok2 = co_await env.write(ep.out2[q], stamp);       // line 25
    // Writer-side streak bookkeeping only; a write-jam flag never
    // changes the send cadence (the sends themselves are the probes).
    ep.out_health[q].note_write(ok1);
    ep.out_health[q].note_write(ok2);
  }
}

// Figure 5, lines 26-40, with the degraded-medium screen in front of
// the freshness judgment.
sim::Co<void> receive_heartbeat(sim::SimEnv& env, HbEndpoint& ep) {
  // Fast path: a previous sweep proved this invocation is timer
  // decrements only -- no poll fires, activeSet cannot change.
  if (ep.sweep_skip_credit > 0) {
    --ep.sweep_skip_credit;
    co_return;
  }
  const int n = env.n();
  // Pay back the decrements the skipped invocations owe.
  if (ep.sweep_skip_debt > 0) {
    for (sim::Pid q = 0; q < n; ++q) {
      if (q == ep.self) continue;
      ep.hb_timer[q] -= ep.sweep_skip_debt;
    }
    ep.sweep_skip_debt = 0;
  }
  for (sim::Pid q = 0; q < n; ++q) {                              // line 27
    if (q == ep.self) continue;
    if (ep.hb_timer[q] >= 1) --ep.hb_timer[q];                    // line 28
    if (ep.hb_timer[q] == 0) {                                    // line 29
      ep.hb_timer[q] = ep.hb_timeout[q];                          // line 30
      ep.prev1[q] = ep.hb1[q];                                    // line 31
      ep.prev2[q] = ep.hb2[q];                                    // line 32
      ep.hb1[q] = co_await env.read(ep.in1[q]);                   // line 33
      ep.hb2[q] = co_await env.read(ep.in2[q]);                   // line 34
      auto& health = ep.in_health[q];

      // Screen each read: a stamp failing its checksum or regressing
      // below an accepted counter is a medium fault -- it must neither
      // count as fresh (a broken link must not prove timeliness) nor as
      // the paper's stale evidence of a slow writer.
      bool sound = true;
      const auto classify = [&](const std::optional<HbStamp>& cur,
                                const std::optional<HbStamp>& prev,
                                HbCounter& seen) {
        if (!cur.has_value()) return true;  // abort: fresh per line 35
        if (!cur->valid()) {
          health.observe_corrupt();
          sound = false;
          return false;
        }
        if (cur->seq < seen) {
          health.observe_regression();
          sound = false;
          return false;
        }
        seen = cur->seq;
        return cur != prev;                                       // line 35
      };
      const bool fresh1 = classify(ep.hb1[q], ep.prev1[q], ep.seen1[q]);
      const bool fresh2 = classify(ep.hb2[q], ep.prev2[q], ep.seen2[q]);
      const bool fresh = fresh1 && fresh2 && sound;

      // Round-level health: only a round in which EVERY read aborted
      // feeds the jam streak; a valid stale round is Figure 5's
      // evidence of a slow WRITER over a working medium and breaks it.
      if (!ep.hb1[q].has_value() && !ep.hb2[q].has_value()) {
        health.observe_abort_round();
      } else if (fresh) {
        health.observe_fresh();
      } else if (sound) {
        health.observe_stale_round();
      }

      if (health.quarantined()) {
        // Demoted: Figure 6 punishes q through counter/actrTo. Probe on
        // the backoff schedule instead of hbTimeout, which would grow
        // forever against a jam and make an eventual heal invisible.
        ep.active_set[q] = false;
        ep.hb_timer[q] = health.probe_delay();
        continue;
      }
      if (fresh) {
        ep.active_set[q] = true;                                  // line 36
      } else {
        ep.active_set[q] = false;                                 // line 38
        ++ep.hb_timeout[q];                                       // line 39
      }
      // Jam suspicion: a long all-abort streak spaces the next polls
      // out (see link_health.hpp). The judgment above already ran --
      // abort still counts as fresh until the jam is confirmed.
      if (const auto spaced = health.suspect_delay(); spaced > 0) {
        ep.hb_timer[q] = std::max(ep.hb_timer[q], spaced);
      }
    }
  }
  // Bank the run of no-op invocations ahead: every timer is >= 1 after
  // a sweep (resets go to hbTimeout, probe_delay, or suspect_delay, all
  // >= 1), so the next min-1 invocations only count down. Once the
  // timeouts have grown past the writers' cadence, most calls take the
  // O(1) fast path above.
  std::int64_t min_timer = std::numeric_limits<std::int64_t>::max();
  for (sim::Pid q = 0; q < n; ++q) {
    if (q == ep.self) continue;
    min_timer = std::min(min_timer, ep.hb_timer[q]);
  }
  if (n > 1 && min_timer >= 2) {
    ep.sweep_skip_credit = min_timer - 1;
    ep.sweep_skip_debt = min_timer - 1;
  }
}

}  // namespace tbwf::omega
