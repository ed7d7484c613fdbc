#include "sim/trace.hpp"

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace tbwf::sim {

const char* to_string(RegKind kind) {
  switch (kind) {
    case RegKind::Atomic:    return "atomic";
    case RegKind::Safe:      return "safe";
    case RegKind::Abortable: return "abortable";
  }
  return "?";
}

Step Trace::steps_of(Pid p) const {
  Step count = 0;
  for (auto s : steps_) {
    if (static_cast<Pid>(s) == p) ++count;
  }
  return count;
}

Step Trace::steps_of_in(Pid p, Step from, Step to) const {
  TBWF_ASSERT(from <= to && to <= steps_.size(), "window out of range");
  Step count = 0;
  for (Step s = from; s < to; ++s) {
    if (static_cast<Pid>(steps_[s]) == p) ++count;
  }
  return count;
}

Step Trace::max_gap_in(Pid p, Step from, Step to) const {
  TBWF_ASSERT(from <= to && to <= steps_.size(), "window out of range");
  Step best = 0;
  Step gap = 0;
  for (Step s = from; s < to; ++s) {
    if (static_cast<Pid>(steps_[s]) == p) {
      if (gap > best) best = gap;
      gap = 0;
    } else {
      ++gap;
    }
  }
  return gap > best ? gap : best;
}

Step Trace::max_gap(Pid p) const {
  Step best = 0;
  Step gap = 0;
  bool seen = false;
  for (auto s : steps_) {
    if (static_cast<Pid>(s) == p) {
      if (gap > best) best = gap;
      gap = 0;
      seen = true;
    } else {
      ++gap;
    }
  }
  if (!seen) return kNever;
  if (gap > best) best = gap;
  return best;
}

TimelinessVerdict Trace::timeliness(Pid p) const {
  TBWF_ASSERT(p >= 0 && p < n_, "pid out of range");
  TimelinessVerdict v;
  v.crashed = crashed(p);
  v.steps_taken = steps_of(p);
  const Step gap = max_gap(p);
  v.empirical_bound = (gap == kNever) ? kNever : gap + 1;
  return v;
}

std::vector<Pid> Trace::timely_set(Step bound) const {
  std::vector<Pid> result;
  for (Pid p = 0; p < n_; ++p) {
    if (timeliness(p).timely_with_bound(bound)) result.push_back(p);
  }
  return result;
}

std::uint64_t Trace::digest() const {
  std::uint64_t h = util::digest_range(util::kFnvOffset, steps_);
  h = util::digest_mix(h, fault_log_.size());
  for (const FaultEvent& ev : fault_log_) {
    h = util::digest_mix(h, ev.at);
    h = util::digest_mix(h, ev.pid);
    h = util::digest_mix(h, ev.restart);
  }
  return h;
}

}  // namespace tbwf::sim
