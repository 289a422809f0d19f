// Shared plumbing for the reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper
// (DESIGN.md section 3 maps experiment ids to binaries) by driving the
// simulated V domain and printing paper-vs-measured rows.  Exit code is
// non-zero if any simulated process died unexpectedly.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "ipc/kernel.hpp"
#include "naming/types.hpp"
#include "servers/file_server.hpp"
#include "servers/prefix_server.hpp"
#include "svc/runtime.hpp"

namespace v::bench {

/// Machine-readable mirror of the printed report.  Every headline/row/note
/// call is recorded here; `write_json` (invoked automatically when the
/// binary is run with `--json <path>`) emits the whole report as JSON so
/// results can be checked in and diffed (e.g. BENCH_server_team.json).
class JsonReport {
 public:
  static JsonReport& instance() {
    static JsonReport report;
    return report;
  }

  void set_headline(std::string id, std::string title) {
    sections_.push_back({std::move(id), std::move(title), {}, {}});
  }
  /// Record the run parameters that make the numbers reproducible: the
  /// schedule seed (0 = deterministic FIFO tie-break, nonzero = fuzzed
  /// same-timestamp permutation) and the calibration preset the domain
  /// was built from.
  void set_run_info(std::uint64_t seed, std::string calibration) {
    run_seed_ = seed;
    run_calibration_ = std::move(calibration);
    have_run_info_ = true;
  }
  /// Record host-side timing mode: how many repeats the bench ran and the
  /// median wall-clock per repeat.  Host numbers are the only
  /// non-deterministic part of a report, so the JSON states how they were
  /// stabilised.
  void set_host_timing(int repeats, double median_ms) {
    host_repeats_ = repeats;
    host_median_ms_ = median_ms;
  }
  /// Record end-of-run name-cache counters so a checked-in report carries
  /// its hit/miss/stale/fallback profile alongside the latencies.
  void set_cache_stats(std::uint64_t hits, std::uint64_t misses,
                       std::uint64_t stale, std::uint64_t fallbacks) {
    cache_hits_ = hits;
    cache_misses_ = misses;
    cache_stale_ = stale;
    cache_fallbacks_ = fallbacks;
    have_cache_stats_ = true;
  }
  /// Record the observability configuration the run used: the V-trace
  /// head-sampling keep rate and the flight recorder's per-ring capacity.
  void set_obs_info(double sample_rate, std::uint64_t flight_capacity) {
    obs_sample_rate_ = sample_rate;
    obs_flight_capacity_ = flight_capacity;
    have_obs_info_ = true;
  }
  /// Record one E14 scale cell (bench_scale): a whole production day at one
  /// shard count, reduced to its deterministic simulated numbers.  All
  /// fields derive from simulated time, so the array is byte-identical per
  /// seed — the CI scale stage diffs two runs to prove it.
  struct ScaleCell {
    std::string cell;
    std::size_t shards = 0;
    std::size_t hosts = 0;
    std::uint64_t opens = 0;
    std::uint64_t errors = 0;
    std::uint64_t wrong = 0;
    double throughput_per_s = 0;
    double p50_ms = 0;
    double p99_ms = 0;
    double flash_p99_ms = 0;
    std::uint64_t map_fetches = 0;
    std::uint64_t stale_retries = 0;
    std::uint64_t noreply_retries = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t handbacks = 0;
  };
  void add_scale_cell(ScaleCell cell) { scale_.push_back(std::move(cell)); }

  /// Record one engine-throughput workload (bench_engine): raw event and
  /// message-transaction counts plus the host wall-clock they took.  The
  /// derived events/txns per wall-second are what the CI perf stage gates;
  /// everything else in a report stays deterministic.
  void add_engine_workload(std::string workload, std::uint64_t events,
                           std::uint64_t txns, double wall_ms,
                           double sim_ms) {
    engine_.push_back(
        {std::move(workload), events, txns, wall_ms, sim_ms});
  }

  void add_row(const std::string& label, double measured_ms,
               double paper_ms) {
    if (sections_.empty()) sections_.push_back({"", "", {}, {}});
    sections_.back().rows.push_back({label, measured_ms, paper_ms});
  }
  void add_note(const std::string& text) {
    if (sections_.empty()) sections_.push_back({"", "", {}, {}});
    sections_.back().notes.push_back(text);
  }

  /// Serialise everything recorded so far to `path`.  Returns false on
  /// I/O failure.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n");
    if (have_run_info_) {
      std::fprintf(f,
                   "  \"run\": {\"seed\": \"0x%llx\", \"schedule\": \"%s\", "
                   "\"calibration\": \"%s\"",
                   static_cast<unsigned long long>(run_seed_),
                   run_seed_ == 0 ? "fifo" : "fuzz",
                   escape(run_calibration_).c_str());
      if (host_repeats_ > 0) {
        std::fprintf(f,
                     ", \"host_repeats\": %d, \"host_median_ms\": %.3f",
                     host_repeats_, host_median_ms_);
      }
      if (have_cache_stats_) {
        std::fprintf(f,
                     ", \"namecache\": {\"hits\": %llu, \"misses\": %llu, "
                     "\"stale\": %llu, \"fallbacks\": %llu}",
                     static_cast<unsigned long long>(cache_hits_),
                     static_cast<unsigned long long>(cache_misses_),
                     static_cast<unsigned long long>(cache_stale_),
                     static_cast<unsigned long long>(cache_fallbacks_));
      }
      if (have_obs_info_) {
        std::fprintf(f,
                     ", \"obs\": {\"sample_rate\": %.4f, "
                     "\"flight_capacity\": %llu}",
                     obs_sample_rate_,
                     static_cast<unsigned long long>(obs_flight_capacity_));
      }
      std::fprintf(f, "},\n");
    }
    if (!engine_.empty()) {
      std::fprintf(f, "  \"engine\": [\n");
      for (std::size_t e = 0; e < engine_.size(); ++e) {
        const EngineWorkload& w = engine_[e];
        const double wall_s = w.wall_ms / 1000.0;
        std::fprintf(
            f,
            "    {\"workload\": \"%s\", \"events\": %llu, \"txns\": %llu, "
            "\"wall_ms\": %.3f, \"sim_ms\": %.3f, "
            "\"events_per_wall_second\": %.0f, "
            "\"txns_per_wall_second\": %.0f}%s\n",
            escape(w.workload).c_str(),
            static_cast<unsigned long long>(w.events),
            static_cast<unsigned long long>(w.txns), w.wall_ms, w.sim_ms,
            wall_s > 0 ? static_cast<double>(w.events) / wall_s : 0.0,
            wall_s > 0 ? static_cast<double>(w.txns) / wall_s : 0.0,
            e + 1 < engine_.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n");
    }
    if (!scale_.empty()) {
      std::fprintf(f, "  \"scale\": [\n");
      for (std::size_t c = 0; c < scale_.size(); ++c) {
        const ScaleCell& s = scale_[c];
        std::fprintf(
            f,
            "    {\"cell\": \"%s\", \"shards\": %zu, \"hosts\": %zu, "
            "\"opens\": %llu, \"errors\": %llu, \"wrong\": %llu, "
            "\"throughput_per_s\": %.2f, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
            "\"flash_p99_ms\": %.4f, \"map_fetches\": %llu, "
            "\"stale_retries\": %llu, \"noreply_retries\": %llu, "
            "\"handoffs\": %llu, \"handbacks\": %llu}%s\n",
            escape(s.cell).c_str(), s.shards, s.hosts,
            static_cast<unsigned long long>(s.opens),
            static_cast<unsigned long long>(s.errors),
            static_cast<unsigned long long>(s.wrong), s.throughput_per_s,
            s.p50_ms, s.p99_ms, s.flash_p99_ms,
            static_cast<unsigned long long>(s.map_fetches),
            static_cast<unsigned long long>(s.stale_retries),
            static_cast<unsigned long long>(s.noreply_retries),
            static_cast<unsigned long long>(s.handoffs),
            static_cast<unsigned long long>(s.handbacks),
            c + 1 < scale_.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n");
    }
    std::fprintf(f, "  \"sections\": [\n");
    for (std::size_t s = 0; s < sections_.size(); ++s) {
      const Section& sec = sections_[s];
      std::fprintf(f, "    {\n      \"id\": \"%s\",\n      \"title\": \"%s\",\n",
                   escape(sec.id).c_str(), escape(sec.title).c_str());
      std::fprintf(f, "      \"rows\": [\n");
      for (std::size_t r = 0; r < sec.rows.size(); ++r) {
        const Row& row = sec.rows[r];
        std::fprintf(f, "        {\"label\": \"%s\", \"measured_ms\": %.4f",
                     escape(row.label).c_str(), row.measured_ms);
        if (row.paper_ms >= 0) {
          std::fprintf(f, ", \"paper_ms\": %.4f", row.paper_ms);
        }
        std::fprintf(f, "}%s\n", r + 1 < sec.rows.size() ? "," : "");
      }
      std::fprintf(f, "      ],\n      \"notes\": [\n");
      for (std::size_t n = 0; n < sec.notes.size(); ++n) {
        std::fprintf(f, "        \"%s\"%s\n", escape(sec.notes[n]).c_str(),
                     n + 1 < sec.notes.size() ? "," : "");
      }
      std::fprintf(f, "      ]\n    }%s\n",
                   s + 1 < sections_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Row {
    std::string label;
    double measured_ms;
    double paper_ms;
  };
  struct Section {
    std::string id;
    std::string title;
    std::vector<Row> rows;
    std::vector<std::string> notes;
  };
  struct EngineWorkload {
    std::string workload;
    std::uint64_t events;
    std::uint64_t txns;
    double wall_ms;
    double sim_ms;
  };

  static std::string escape(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out.push_back(c);
    }
    return out;
  }

  std::vector<Section> sections_;
  std::vector<EngineWorkload> engine_;
  std::vector<ScaleCell> scale_;
  bool have_run_info_ = false;
  std::uint64_t run_seed_ = 0;
  std::string run_calibration_;
  int host_repeats_ = 0;
  double host_median_ms_ = 0;
  bool have_cache_stats_ = false;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t cache_stale_ = 0;
  std::uint64_t cache_fallbacks_ = 0;
  bool have_obs_info_ = false;
  double obs_sample_rate_ = 1.0;
  std::uint64_t obs_flight_capacity_ = 0;
};

inline void headline(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
  JsonReport::instance().set_headline(id, title);
}

inline void row(const std::string& label, double measured_ms,
                double paper_ms = -1) {
  if (paper_ms >= 0) {
    std::printf("  %-44s %9.2f ms   (paper: %7.2f ms, %+5.1f%%)\n",
                label.c_str(), measured_ms, paper_ms,
                100.0 * (measured_ms - paper_ms) / paper_ms);
  } else {
    std::printf("  %-44s %9.2f ms\n", label.c_str(), measured_ms);
  }
  JsonReport::instance().add_row(label, measured_ms, paper_ms);
}

inline void note(const std::string& text) {
  std::printf("  %s\n", text.c_str());
  JsonReport::instance().add_note(text);
}

/// Parse `--json <path>` from argv.  Call once at the top of main(); if
/// present, the report is flushed to `path` by `finish()`.
inline std::string json_path_from_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return {};
}

/// True when the bare flag (e.g. "--flight") appears anywhere in argv.
inline bool has_flag(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// Parse a `--<flag> <value>` option from argv ("" when absent), e.g.
/// flag_value(argc, argv, "--metrics") or "--trace".
inline std::string flag_value(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (flag == argv[i]) return argv[i + 1];
  }
  return {};
}

/// Write the domain's metrics-registry snapshot (same numbers a `[metrics]`
/// Read serves) to `path`; "" skips.  Kept separate from `--json` so the
/// checked-in bench reports stay byte-identical whether or not a metrics
/// dump was requested.  Returns false on I/O failure.
inline bool write_metrics(const ipc::Domain& dom, const std::string& path) {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH FAILURE: cannot write %s\n", path.c_str());
    return false;
  }
  const std::string json = dom.metrics().to_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("  metrics snapshot written to %s\n", path.c_str());
  return true;
}

/// Parse `--repeat <n>` from argv (default 1, floor 1).  Simulated times
/// are deterministic; repeats exist to stabilise HOST-side wall-clock
/// numbers (see `median_host_ms`).
inline int repeat_from_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--repeat") {
      const long n = std::strtol(argv[i + 1], nullptr, 0);
      return n > 1 ? static_cast<int>(n) : 1;
    }
  }
  return 1;
}

/// Run `fn` `repeats` times and return the MEDIAN host wall-clock per run
/// in milliseconds (median, not mean: robust against a cold first run and
/// scheduler outliers).  Also records the mode in the JSON run info.
template <typename Fn>
inline double median_host_ms(int repeats, Fn&& fn) {
  if (repeats < 1) repeats = 1;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  const double median = samples[samples.size() / 2];
  JsonReport::instance().set_host_timing(repeats, median);
  return median;
}

/// Print and record name-cache counters (aggregated by the caller when a
/// bench runs several domains).
inline void cache_stats(std::uint64_t hits, std::uint64_t misses,
                        std::uint64_t stale, std::uint64_t fallbacks) {
  std::printf(
      "  namecache: %llu hits, %llu misses, %llu stale, %llu fallbacks\n",
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses),
      static_cast<unsigned long long>(stale),
      static_cast<unsigned long long>(fallbacks));
  JsonReport::instance().set_cache_stats(hits, misses, stale, fallbacks);
}
inline void cache_stats(const svc::NameCache& cache) {
  cache_stats(cache.hits(), cache.misses(), cache.stale(),
              cache.fallbacks());
}

/// Parse `--seed <n>` (decimal or 0x-hex) from argv.  0 — the default —
/// leaves the event loop in deterministic FIFO tie-break order; nonzero
/// should be fed to `dom.loop().enable_fuzz(seed)` for a fuzzed schedule.
inline std::uint64_t seed_from_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--seed") {
      return std::strtoull(argv[i + 1], nullptr, 0);
    }
  }
  return 0;
}

/// Print and record the run parameters (schedule seed + calibration
/// preset) so every checked-in JSON report states how it was produced.
inline void run_info(std::uint64_t seed, const std::string& calibration) {
  std::printf("  schedule seed 0x%llx (%s), calibration %s\n",
              static_cast<unsigned long long>(seed),
              seed == 0 ? "fifo ties" : "fuzzed ties", calibration.c_str());
  JsonReport::instance().set_run_info(seed, calibration);
}

/// Print and record the observability configuration (V-trace head-sampling
/// keep rate + flight-recorder ring capacity).
inline void obs_info(const ipc::Domain& dom) {
  const double rate = dom.tracer().sampler().rate();
  const auto cap = static_cast<std::uint64_t>(dom.flight().capacity());
  std::printf("  obs: sample rate %.2f, flight capacity %llu\n", rate,
              static_cast<unsigned long long>(cap));
  JsonReport::instance().set_obs_info(rate, cap);
}

/// Flush the JSON report if `--json` was given.  Returns the process exit
/// code: `ok_exit` normally, 1 if the report could not be written.
inline int finish(const std::string& json_path, int ok_exit = 0) {
  if (json_path.empty()) return ok_exit;
  if (!JsonReport::instance().write(json_path)) {
    std::fprintf(stderr, "BENCH FAILURE: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::printf("\n  JSON report written to %s\n", json_path.c_str());
  return ok_exit;
}

/// Run `body` as a client process on `host` and drain the simulation.
/// Returns false (and reports) if any process failed.
inline bool run_client(ipc::Domain& dom, ipc::Host& host,
                       std::function<sim::Co<void>(ipc::Process)> body) {
  host.spawn("bench-client", std::move(body));
  dom.run();
  if (dom.process_failures() != 0) {
    std::fprintf(stderr, "BENCH FAILURE: %s\n", dom.first_failure().c_str());
    return false;
  }
  return true;
}

}  // namespace v::bench
