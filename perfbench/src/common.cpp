#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <iterator>
#include <map>

#include "util/rng.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (rank < 1) rank = 1;
  if (rank > values.size()) rank = values.size();
  return values[rank - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  tbwf::util::SplitMix64 sm(seed * 0x9E3779B97F4A7C15ULL ^ (a << 48) ^ b);
  return sm.next();
}

namespace {

void print_number(std::FILE* f, double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::fprintf(f, "%.17g", v);
}

void print_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", c);
      continue;
    }
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

void emit_metrics(const std::string& section, const Metrics& metrics) {
  std::printf("{\"kind\":\"metrics\",\"section\":");
  print_string(stdout, section);
  std::printf(",\"metrics\":{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) std::putchar(',');
    print_string(stdout, metrics[i].first);
    std::putchar(':');
    print_number(stdout, metrics[i].second);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void emit_progress(std::uint64_t attempted) {
  std::printf("{\"kind\":\"progress\",\"attempted\":%llu}\n",
              static_cast<unsigned long long>(attempted));
  std::fflush(stdout);
}

bool Result::correct() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const auto& c) { return c.second; });
}

void emit_result(const Result& result) {
  std::printf("{\"kind\":\"result\",\"correct\":%s,\"attempted\":%llu,"
              "\"failed\":%llu,\"checks\":{",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.checks.size(); ++i) {
    if (i > 0) std::putchar(',');
    print_string(stdout, result.checks[i].first);
    std::printf(":%s", result.checks[i].second ? "true" : "false");
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::int32_t SpanRecorder::begin_at(const char* name, std::uint64_t op,
                                    std::uint64_t t, std::int32_t parent) {
  const bool nested = parent == kAuto;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    if (nested) open_.push_back(-1);
    return -1;
  }
  Span span;
  span.name = name;
  span.start = t;
  span.end = t;
  span.op = op;
  span.parent = nested ? -1 : parent;
  if (nested) {
    // The innermost kept open span is the parent.
    for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
      if (*it >= 0) {
        span.parent = *it;
        break;
      }
    }
  }
  spans_.push_back(span);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  if (nested) open_.push_back(id);
  return id;
}

void SpanRecorder::end_at(std::int32_t id, std::uint64_t t) {
  // Dropped nested spans sit on the stack as -1; pop the innermost entry
  // for them, or the span's own entry otherwise.
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (*it == id) {
      open_.erase(std::next(it).base());
      break;
    }
  }
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end = t;
}

bool write_trace(const std::string& path,
                 const std::vector<SpanDomain>& domains) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  struct Row {
    std::uint64_t calls = 0;
    double total = 0;
    double self = 0;
  };
  std::printf("{\"kind\":\"spans\",\"rows\":[");
  bool first_row = true;
  for (std::size_t d = 0; d < domains.size(); ++d) {
    const SpanDomain& dom = domains[d];
    const int pid = static_cast<int>(d) + 1;
    std::fprintf(f, "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                    "\"args\":{\"name\":",
                 first ? "" : ",\n", pid);
    print_string(f, dom.name + (dom.in_steps ? " (1 us = 1 sim step)"
                                             : " (wall clock)"));
    std::fprintf(f, "}}");
    first = false;
    std::uint64_t t0 = ~0ULL;
    for (const SpanRecorder* rec : dom.recorders) {
      for (const auto& s : rec->spans()) t0 = std::min(t0, s.start);
    }
    std::map<std::string, Row> rows;
    std::uint64_t dropped = 0;
    for (const SpanRecorder* rec : dom.recorders) {
      dropped += rec->dropped();
      const auto& spans = rec->spans();
      std::vector<double> child(spans.size(), 0.0);
      for (const auto& s : spans) {
        if (s.parent >= 0) {
          child[static_cast<std::size_t>(s.parent)] +=
              static_cast<double>(s.end - s.start);
        }
      }
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& s = spans[i];
        const double dur = static_cast<double>(s.end - s.start);
        Row& row = rows[s.name];
        ++row.calls;
        row.total += dur;
        row.self += dur - child[i];
        const double scale = dom.in_steps ? 1.0 : 1e-3;  // -> trace "us"
        std::fprintf(f, ",\n{\"name\":");
        print_string(f, s.name);
        std::fprintf(f, ",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,\"ts\":%.3f,"
                        "\"dur\":%.3f,\"args\":{\"op\":%llu,\"parent\":%d}}",
                     pid, rec->track(),
                     static_cast<double>(s.start - t0) * scale, dur * scale,
                     static_cast<unsigned long long>(s.op), s.parent);
      }
    }
    for (const auto& [name, row] : rows) {
      std::printf("%s{\"domain\":", first_row ? "" : ",");
      first_row = false;
      print_string(stdout, dom.name);
      std::printf(",\"name\":");
      print_string(stdout, name);
      std::printf(",\"unit\":\"%s\",\"calls\":%llu,\"total\":",
                  dom.in_steps ? "steps" : "us",
                  static_cast<unsigned long long>(row.calls));
      const double scale = dom.in_steps ? 1.0 : 1e-3;
      print_number(stdout, row.total * scale);
      std::printf(",\"self\":");
      print_number(stdout, row.self * scale);
      std::printf(",\"dropped\":%llu}",
                  static_cast<unsigned long long>(dropped));
    }
  }
  std::printf("]}\n");
  std::fflush(stdout);
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void note(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

}  // namespace perfbench
