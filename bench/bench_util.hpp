// Shared helpers for the experiment harnesses: fixed-width table
// printing and common workload drivers. Each bench binary regenerates
// one experiment row-set recorded in EXPERIMENTS.md.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/progress.hpp"
#include "core/tbwf.hpp"
#include "sim/schedule.hpp"
#include "sim/world.hpp"

// HEAD at configure time, or empty outside a git checkout.
#ifndef TBWF_BUILD_GIT_SHA
#define TBWF_BUILD_GIT_SHA ""
#endif

namespace tbwf::bench {

inline void banner(const std::string& title, const std::string& claim) {
  std::printf("\n==============================================================="
              "=================\n");
  std::printf("%s\n", title.c_str());
  std::printf("claim: %s\n", claim.c_str());
  std::printf("================================================================"
              "================\n");
}

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    // Size the width vector to the longest ROW, not just the header
    // count: a row with trailing extra cells (common for annotated
    // last columns) must print them, not silently truncate -- and
    // print_row below indexes width[] for every cell it prints.
    std::size_t ncols = headers_.size();
    for (const auto& r : rows_) ncols = std::max(ncols, r.size());
    std::vector<std::size_t> width(ncols, 0);
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
    }
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size(); ++c) {
        width[c] = std::max(width[c], r[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < cells.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(width[c]), cells[c].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::string sep;
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      sep += std::string(width[c], '-') + "  ";
    }
    std::printf("%s\n", sep.c_str());
    for (const auto& r : rows_) print_row(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

inline std::string fmt_u(std::uint64_t v) {
  return fmt("%llu", static_cast<unsigned long long>(v));
}
inline std::string fmt_i(std::int64_t v) {
  return fmt("%lld", static_cast<long long>(v));
}
inline std::string fmt_f(double v, int digits = 2) {
  return fmt("%.*f", digits, v);
}

/// Machine-readable experiment output: one JSON document per bench
/// binary, schema "tbwf-bench-v1":
///   {"experiment": "<id>", "schema": "tbwf-bench-v1",
///    "rows": [{"config": {"<k>": "<v>", ...}, "metric": "<name>",
///              "value": <number>, "unit": "<unit>", "seed": <u64>}]}
/// Config values are strings. Defaults installed with set_config apply
/// to every subsequent row; per-row pairs override by key. The files
/// land at bench_json_path() (BENCH_<id>.json) and feed the CI
/// bench-smoke regression gate plus the EXPERIMENTS.md tables.
class JsonReporter {
 public:
  explicit JsonReporter(std::string experiment)
      : experiment_(std::move(experiment)) {}

  /// Sticky config key applied to every row added after this call.
  void set_config(const std::string& key, const std::string& value) {
    upsert(defaults_, key, value);
  }

  /// Extra run-metadata key stamped into the document's top-level
  /// "meta" object (overrides the automatic keys on collision).
  void set_meta(const std::string& key, const std::string& value) {
    upsert(meta_, key, value);
  }

  void row(const std::string& metric, double value, const std::string& unit,
           std::uint64_t seed,
           const std::vector<std::pair<std::string, std::string>>& config =
               {}) {
    Row r;
    r.config = defaults_;
    for (const auto& kv : config) upsert(r.config, kv.first, kv.second);
    r.metric = metric;
    r.value = value;
    r.unit = unit;
    r.seed = seed;
    rows_.push_back(std::move(r));
  }

  std::string str() const {
    std::string out = "{\n  \"experiment\": " + quote(experiment_) +
                      ",\n  \"schema\": \"tbwf-bench-v1\",\n  \"meta\": {";
    const Config meta = stamped_meta();
    for (std::size_t i = 0; i < meta.size(); ++i) {
      if (i > 0) out += ", ";
      out += quote(meta[i].first) + ": " + quote(meta[i].second);
    }
    out += "},\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      out += (i == 0 ? "\n" : ",\n");
      out += "    {\"config\": {";
      for (std::size_t c = 0; c < r.config.size(); ++c) {
        if (c > 0) out += ", ";
        out += quote(r.config[c].first) + ": " + quote(r.config[c].second);
      }
      out += "}, \"metric\": " + quote(r.metric);
      out += ", \"value\": " + fmt("%.17g", r.value);
      out += ", \"unit\": " + quote(r.unit);
      out += ", \"seed\": " + fmt_u(r.seed) + "}";
    }
    out += "\n  ]\n}\n";
    return out;
  }

  bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReporter: cannot open %s\n", path.c_str());
      return false;
    }
    const std::string body = str();
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    std::fclose(f);
    if (ok) std::printf("wrote %s\n", path.c_str());
    return ok;
  }

 private:
  using Config = std::vector<std::pair<std::string, std::string>>;
  struct Row {
    Config config;
    std::string metric;
    double value = 0;
    std::string unit;
    std::uint64_t seed = 0;
  };

  static void upsert(Config& config, const std::string& key,
                     const std::string& value) {
    for (auto& kv : config) {
      if (kv.first == key) {
        kv.second = value;
        return;
      }
    }
    config.emplace_back(key, value);
  }

  /// Automatic run metadata: the producing commit (TBWF_GIT_SHA, else
  /// CI's GITHUB_SHA, else the HEAD the build was configured at -- see
  /// bench/CMakeLists.txt), the row count and how many distinct seeds
  /// fed the rows -- enough provenance to tell two BENCH_*.json
  /// artifacts apart. set_meta() entries override.
  Config stamped_meta() const {
    Config meta;
    const char* sha = std::getenv("TBWF_GIT_SHA");
    if (sha == nullptr || *sha == '\0') sha = std::getenv("GITHUB_SHA");
    if (sha == nullptr || *sha == '\0') sha = TBWF_BUILD_GIT_SHA;
    upsert(meta, "git_sha", *sha != '\0' ? sha : "unknown");
    upsert(meta, "rows", fmt_u(rows_.size()));
    std::vector<std::uint64_t> seeds;
    for (const Row& r : rows_) {
      bool known = false;
      for (const std::uint64_t s : seeds) known = known || s == r.seed;
      if (!known) seeds.push_back(r.seed);
    }
    upsert(meta, "distinct_seeds", fmt_u(seeds.size()));
    for (const auto& kv : meta_) upsert(meta, kv.first, kv.second);
    return meta;
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
      switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(ch) < 0x20) {
            out += fmt("\\u%04x", ch);
          } else {
            out += ch;
          }
      }
    }
    return out + "\"";
  }

  std::string experiment_;
  Config defaults_;
  Config meta_;
  std::vector<Row> rows_;
};

/// Where a bench binary drops its BENCH_<id>.json: $TBWF_BENCH_JSON_DIR
/// if set (CI points it at the workspace root), else the working
/// directory.
inline std::string bench_json_path(const std::string& filename) {
  const char* dir = std::getenv("TBWF_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return filename;
  std::string path = dir;
  if (path.back() != '/') path += '/';
  return path + filename;
}

/// Endless counter-increment worker usable with any object exposing
/// Co<Result> invoke(env, Counter::Op).
template <class Obj>
sim::Task counter_worker(sim::SimEnv& env, Obj& obj) {
  for (;;) {
    (void)co_await obj.invoke(env, qa::Counter::Op{1});
  }
}

/// Completions per process restricted to steps >= cutoff.
inline std::vector<std::uint64_t> completions_since(const core::OpLog& log,
                                                    sim::Step cutoff) {
  std::vector<std::uint64_t> out;
  for (const auto& cs : log.completions) {
    std::uint64_t k = 0;
    for (const auto s : cs) {
      if (s >= cutoff) ++k;
    }
    out.push_back(k);
  }
  return out;
}

inline std::uint64_t min_over(const std::vector<std::uint64_t>& xs,
                              const std::vector<sim::Pid>& pids) {
  std::uint64_t best = ~0ULL;
  for (const auto p : pids) best = std::min(best, xs[p]);
  return pids.empty() ? 0 : best;
}

inline std::uint64_t sum_over(const std::vector<std::uint64_t>& xs) {
  std::uint64_t total = 0;
  for (const auto x : xs) total += x;
  return total;
}

}  // namespace tbwf::bench
