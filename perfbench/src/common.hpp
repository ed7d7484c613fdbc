// Shared plumbing for the benchmark workloads: arguments, timing,
// order statistics, the JSON record protocol spoken to run.py, and the
// span recorder behind the traced run.
//
// Protocol: every stdout line that starts with '{' is one JSON record.
//   {"kind":"metrics","section":S,"metrics":{name: number, ...}}
//   {"kind":"progress","attempted":N}
//   {"kind":"spans","rows":[{"domain","name","unit","calls","total",
//                            "self","dropped"}, ...]}
//   {"kind":"result","correct":B,"attempted":N,"failed":N,"checks":{..}}
// Metric names are unique across sections; run.py merges them. A run
// that dies before its result record is graded by run.py from the last
// progress record.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace file.
  std::string out_dir = ".bench_out";
};

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile, q in [0, 1]; 0 on empty input.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set of this process, in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Deterministic 64-bit mix of (seed, a, b): the seeded op streams are
/// pure functions of it, so checkers can recompute any process's k-th op.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b);

/// The 50/50 update/scan stream shared by degrade_sim and contend_rt:
/// process p's k-th op (k >= 1) is an update iff this returns true.
inline bool is_update(std::uint64_t seed, std::uint64_t p, std::uint64_t k) {
  return (mix(seed, p, k) & 1u) != 0;
}

using Metrics = std::vector<std::pair<std::string, double>>;

void emit_metrics(const std::string& section, const Metrics& metrics);
void emit_progress(std::uint64_t attempted);

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Named output checks; the run is correct iff all hold.
  std::vector<std::pair<std::string, bool>> checks;

  void check(std::string name, bool ok) {
    checks.emplace_back(std::move(name), ok);
  }
  bool correct() const;
};
void emit_result(const Result& result);

/// Records wall-clock spans around calls into a layer. One recorder per
/// thread (no locking); nested scopes get their parent automatically.
/// Spans past `capacity` are counted but not kept.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::int32_t parent = -1;
    std::uint64_t op = 0;
  };

  explicit SpanRecorder(std::uint32_t track, std::size_t capacity = 200000)
      : track_(track), capacity_(capacity) {
    spans_.reserve(capacity < 4096 ? capacity : 4096);
  }

  /// Parent argument meaning "the innermost open auto-parented span".
  static constexpr std::int32_t kAuto = -2;

  /// Open a span; returns its index (or -1 when over capacity). With an
  /// explicit parent the span stays off the nesting stack, so spans
  /// whose lifetimes overlap without nesting can still be recorded.
  std::int32_t begin(const char* name, std::uint64_t op,
                     std::int32_t parent = kAuto) {
    return begin_at(name, op, now_ns(), parent);
  }
  void end(std::int32_t id) { end_at(id, now_ns()); }

  /// Explicit-time variants, for spans measured in simulator steps.
  std::int32_t begin_at(const char* name, std::uint64_t op, std::uint64_t t,
                        std::int32_t parent = kAuto);
  void end_at(std::int32_t id, std::uint64_t t);

  std::uint32_t track() const { return track_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint32_t track_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::uint64_t dropped_ = 0;
};

/// RAII span scope over a recorder; a null recorder records nothing, so
/// untraced runs pay one branch per call.
class Scope {
 public:
  Scope(SpanRecorder* rec, const char* name, std::uint64_t op = 0)
      : rec_(rec), id_(rec != nullptr ? rec->begin(name, op) : -1) {}
  ~Scope() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
  std::int32_t id_;
};

/// A group of recorders that share one time domain ("wall" in ns, or
/// "steps" for simulator time).
struct SpanDomain {
  std::string name;
  bool in_steps = false;
  std::vector<const SpanRecorder*> recorders;
};

/// Write every domain's spans as Chrome trace-event JSON (opens in
/// Perfetto / chrome://tracing) and emit the per-name self-time table.
/// Returns false if the file could not be written.
bool write_trace(const std::string& path,
                 const std::vector<SpanDomain>& domains);

/// printf-style diagnostics on stderr (stdout carries only records).
void note(const char* fmt, ...);

}  // namespace perfbench
