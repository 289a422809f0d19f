// V-trace domain metrics registry.
//
// One counting substrate for the whole simulation: counters, gauges and
// histograms keyed (scope, name), where scope is a server's process name
// ("alpha-fs") or a subsystem ("ipc", "loop", "lint", "client").  The
// kernel's DomainStats fields, the protocol-lint violation counts and the
// event-loop stats are mirrored in as callback entries, so one read path
// covers everything.
//
// Two export paths:
//   * to_json() — snapshot for benches (`--metrics <path>` in bench_util);
//   * the MetricsServer (src/servers/metrics_server.hpp), which mounts the
//     registry as a `[metrics]` context — the paper's own context-directory
//     mechanism (section 5.6) turned on the system itself, so a client can
//     Open/Read "[metrics]fileserver/requests" like any file.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotate.hpp"
#include "sim/time.hpp"

namespace v::obs {

/// HdrHistogram-style log-bucketed histogram: 16 linear sub-buckets per
/// power-of-two octave over a 64-bit value range, so record() is a couple
/// of bit operations into a fixed ~7.6 KiB table and percentile reads
/// carry at most 1/16 ≈ 6.25% relative error.  Storing every sample and
/// sorting per read would be fine for a 20-row bench table and fatal for
/// millions of E12 opens.  Values are non-negative doubles (typically simulated
/// milliseconds), quantized to 1/1024 of the input unit (~1 µs for ms).
///
/// A header-only value type: the registry stores one per histogram entry,
/// and bench and workload harness code streams samples through it as a
/// client-side statistics accumulator.
class LogHistogram {
 public:
  static constexpr int kSubBucketBits = 4;  ///< 16 sub-buckets per octave
  static constexpr double kQuantum = 1024.0;  ///< count units per input unit

  V_HOT_PATH
  void record(double v) noexcept {
    if (!(v > 0.0)) v = 0.0;  // negatives and NaN clamp to the zero bucket
    const double scaled = v * kQuantum;
    const std::uint64_t u =
        scaled >= 18446744073709549568.0  // largest double below 2^64
            ? ~std::uint64_t{0}
            : static_cast<std::uint64_t>(scaled);
    counts_[index_of(u)] += 1;
    sum_ += v;
    if (count_ == 0 || v < min_) min_ = v;
    if (count_ == 0 || v > max_) max_ = v;
    ++count_;
  }

  [[nodiscard]] std::size_t count() const noexcept {
    return static_cast<std::size_t>(count_);
  }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Percentile (q in [0,1]) as the midpoint of the bucket holding the
  /// rank, clamped to the observed [min, max] so sparse distributions
  /// never report a value outside what was recorded.
  [[nodiscard]] double percentile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    if (q <= 0.0) return min_;
    if (q >= 1.0) return max_;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1)) + 1;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      cum += counts_[i];
      if (cum >= target) {
        const double v = value_of(i);
        return v < min_ ? min_ : (v > max_ ? max_ : v);
      }
    }
    return max_;
  }

  /// Raw bucket table (tests; renderers wanting full shape).
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return i < kBucketCount ? counts_[i] : 0;
  }
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(64 - kSubBucketBits + 1) << kSubBucketBits;

 private:
  static constexpr std::size_t kSubBucketCount = 1u << kSubBucketBits;

  V_HOT_PATH
  static std::size_t index_of(std::uint64_t u) noexcept {
    if (u < kSubBucketCount) return static_cast<std::size_t>(u);
    const int msb = 63 - std::countl_zero(u);
    const int block = msb - kSubBucketBits + 1;
    const auto sub = static_cast<std::size_t>(
        (u >> (msb - kSubBucketBits)) & (kSubBucketCount - 1));
    return (static_cast<std::size_t>(block) << kSubBucketBits) + sub;
  }

  /// Midpoint of bucket i, back in input units.
  [[nodiscard]] static double value_of(std::size_t i) noexcept {
    const std::size_t block = i >> kSubBucketBits;
    const std::size_t sub = i & (kSubBucketCount - 1);
    if (block == 0) return (static_cast<double>(sub) + 0.5) / kQuantum;
    const int msb = static_cast<int>(block) + kSubBucketBits - 1;
    const double lo =
        static_cast<double>(std::uint64_t{1} << msb) +
        static_cast<double>(sub) *
            static_cast<double>(std::uint64_t{1} << (msb - kSubBucketBits));
    const double width =
        static_cast<double>(std::uint64_t{1} << (msb - kSubBucketBits));
    return (lo + width * 0.5) / kQuantum;
  }

  std::array<std::uint64_t, kBucketCount> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Monotone event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time level; remembers its high-water mark.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_ = v;
    if (v > high_water_) high_water_ = v;
  }
  [[nodiscard]] std::int64_t value() const noexcept { return value_; }
  [[nodiscard]] std::int64_t high_water() const noexcept {
    return high_water_;
  }

 private:
  std::int64_t value_ = 0;
  std::int64_t high_water_ = 0;
};

/// Per-opcode latency SLO counters: each opcode with a configured budget
/// counts replies that landed within it vs over it.  observe() sits on
/// the kernel's reply-completion path, so it is a linear scan over a
/// handful of entries and nothing else; opcodes without a budget cost one
/// failed scan.  Exported through `[metrics] slo/` as
/// "<opcode>.within" / "<opcode>.over" callback mirrors.
class SloTracker {
 public:
  struct Slo {
    sim::SimDuration budget = 0;  ///< simulated ns
    std::uint64_t within = 0;
    std::uint64_t over = 0;
    std::uint16_t code = 0;
  };

  /// Set (or reset) the budget for one opcode.  Counters persist across a
  /// budget change.
  void set_budget(std::uint16_t code, sim::SimDuration budget) {
    for (Slo& s : slos_) {
      if (s.code == code) {
        s.budget = budget;
        return;
      }
    }
    slos_.push_back({budget, 0, 0, code});
  }

  /// Entry for one opcode; nullptr when it has no budget.  Look up by
  /// code, not by held reference — set_budget may reallocate.
  [[nodiscard]] const Slo* find(std::uint16_t code) const noexcept {
    for (const Slo& s : slos_) {
      if (s.code == code) return &s;
    }
    return nullptr;
  }

  V_HOT_PATH
  void observe(std::uint16_t code, sim::SimDuration took) noexcept {
    for (Slo& s : slos_) {
      if (s.code == code) {
        if (took <= s.budget) {
          ++s.within;
        } else {
          ++s.over;
        }
        return;
      }
    }
  }

  [[nodiscard]] const std::vector<Slo>& entries() const noexcept {
    return slos_;
  }

 private:
  std::vector<Slo> slos_;
};

class MetricsRegistry {
 public:
  /// Find-or-create.  References stay valid for the registry's lifetime,
  /// so hot paths can cache them.
  Counter& counter(std::string_view scope, std::string_view name);
  Gauge& gauge(std::string_view scope, std::string_view name);
  LogHistogram& histogram(std::string_view scope, std::string_view name);

  /// Register a live read-through entry (mirrors external counters such as
  /// DomainStats fields without moving their storage).
  void register_callback(std::string_view scope, std::string_view name,
                         std::function<double()> read);

  /// Scopes in first-registration order (stable within a run; the
  /// MetricsServer derives context ids from this order).
  [[nodiscard]] const std::vector<std::string>& scopes() const noexcept {
    return scope_order_;
  }
  /// Metric names within a scope, sorted.
  [[nodiscard]] std::vector<std::string> names(std::string_view scope) const;
  /// Current value rendered as one text line ("42\n"; histograms render
  /// their summary stats).  nullopt when (scope, name) is unknown.
  [[nodiscard]] std::optional<std::string> value_text(
      std::string_view scope, std::string_view name) const;

  /// Whole registry as a JSON document.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Metric {
    enum class Kind { kCounter, kGauge, kHistogram, kCallback };
    Kind kind = Kind::kCounter;
    Counter counter;
    Gauge gauge;
    LogHistogram histogram;
    std::function<double()> callback;
  };
  using ScopeMap = std::map<std::string, Metric, std::less<>>;

  Metric& entry(std::string_view scope, std::string_view name,
                Metric::Kind kind);
  static std::string render(const Metric& metric);

  // std::map: node stability backs the returned references.
  std::map<std::string, ScopeMap, std::less<>> scopes_;
  std::vector<std::string> scope_order_;
};

}  // namespace v::obs
