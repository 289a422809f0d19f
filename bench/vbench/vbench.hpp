// vbench: the end-to-end and per-layer benchmark of the naming fabric and
// the simulator that runs it.  See README.md in this directory for the
// workloads, the metrics and how they map onto each other.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ipc/kernel.hpp"
#include "obs/trace.hpp"
#include "svc/shard_router.hpp"

namespace vbench {

enum class Workload : std::uint8_t {
  kDaySteady,
  kDayChurn,
  kResolveChain,
  kCachedMutate,
};

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] std::string_view name_of(Workload w);

struct RunConfig {
  Workload workload = Workload::kDaySteady;
  std::uint64_t seed = 1;
  bool smoke = false;  ///< shrink the workload to well under a host second
  /// Head-sampling keep rate of the V-trace sink; 0 leaves tracing off.
  double trace_rate = 0;
};

/// Simulated latency samples (ms) of each bench-owned Rt/File call.
struct CallSamples {
  std::vector<double> open, read, close, create, remove;
};

/// Everything a repeat measures in simulated time.  A pure function of the
/// RunConfig's workload, seed and size: repeats must agree exactly.
struct SimOutcome {
  // Client operations that STARTED inside the measured window.
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  double window_s = 0;
  std::vector<double> op_ms;  ///< open [+ read] + close, retries included
  CallSamples calls;          ///< per call, operations in the window
  /// Content-oracle mismatches anywhere in the run (must stay 0).
  std::uint64_t wrong = 0;
  /// Successful operations over the whole run, warm-up included: the
  /// numerator of every per-op and per-host-second rate.
  std::uint64_t ok_total = 0;

  std::size_t clients = 0;
  std::size_t clients_done = 0;
  std::size_t process_failures = 0;
  std::string first_failure;

  std::uint64_t events = 0;
  std::uint64_t actions_heap = 0;
  std::uint64_t wheel_cascades = 0;
  v::ipc::DomainStats ipc;

  v::svc::ShardRouter::Stats router;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_stale = 0;
  std::uint64_t cache_fallbacks = 0;
  std::uint64_t fabric_sheds = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t handbacks = 0;
  double handoff_ms_sum = 0;
  double handback_ms_sum = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t stale_replies_dropped = 0;
};

/// One timed interval, in wall seconds and in reference seconds.
struct Lap {
  double wall_s = 0;
  double ref_s = 0;
};

/// Host time in reference seconds: wall time scaled by the speed of a
/// fixed reference probe (refclock.cpp) run just before and just after the
/// interval, relative to the speed that defines the reference machine.
/// Probing costs about a millisecond and is not part of any interval.
class RefStopwatch {
 public:
  RefStopwatch();  ///< probes once, then starts timing
  /// The interval since construction or the previous lap; probes again.
  Lap lap();
  /// Probe operations per wall second at the latest probe.
  [[nodiscard]] double probe_rate() const noexcept { return rate_; }

 private:
  double rate_;
  std::chrono::steady_clock::time_point t0_;
};

/// Host cost of one repeat, in reference seconds unless named _wall_.
struct HostCost {
  double forest_s = 0;    ///< forest (and chain) generation
  double install_s = 0;   ///< servers built, populated, spawned
  double spawn_s = 0;     ///< client processes spawned
  double setup_s = 0;     ///< Domain construction -> dom.run() start
  double run_s = 0;       ///< dom.run()
  double run_wall_s = 0;  ///< dom.run(), wall seconds
  double teardown_s = 0;  ///< Domain destructor
  double probe_rate = 0;  ///< reference probe ops per wall second
};

/// Server classes the trace splits hop spans into: fabric shards,
/// workstation prefix servers and file servers, named by the stem every
/// workload spawns those servers under.
inline constexpr std::size_t kClasses = 3;
inline constexpr std::string_view kClassNames[kClasses] = {"shard", "prefix",
                                                           "fs"};
inline constexpr std::size_t kShardClass = 0;

/// One row of the printed per-layer table: a span kind, its count, and its
/// total and self time per successful op.  Self time is the span minus the
/// part of it its children cover; for the client's root send the children
/// are every hop of its tree, so its self time is network transit.
struct LayerRow {
  std::string layer;
  std::uint64_t spans = 0;
  double total_ms_per_op = 0;
  double self_ms_per_op = 0;
};

/// Per-layer numbers read from the V-trace spans of a traced repeat.  Span
/// sums are divided by the sample rate, so per-op figures estimate the
/// whole run, not only the sampled transactions.
struct TraceLayers {
  std::uint64_t spans = 0;
  std::uint64_t client_txns = 0;  ///< sampled client root sends
  double transit_ms_per_txn = 0;  ///< root send minus the hops it covers
  double hops_per_open = 0;
  double queue_ms_per_op[kClasses] = {};
  double service_ms_per_op[kClasses] = {};
  double shard_busy_share_max = 0;  ///< hottest shard, measured window
  std::string busiest_shard;
  std::vector<LayerRow> rows;
};

/// What the trace analysis needs to know about the repeat that made it.
struct TraceScope {
  std::vector<std::uint32_t> client_pids;  ///< roots to keep (sorted)
  v::sim::SimTime window_lo = 0;
  v::sim::SimTime window_hi = 0;
  double rate = 1;
  std::uint64_t ops = 0;          ///< successful ops in the run
  std::size_t shard_workers = 1;  ///< team size of every fabric shard
};

[[nodiscard]] TraceLayers analyze_trace(const v::obs::TraceSink& sink,
                                        const TraceScope& scope);
/// Print the per-layer table of a traced repeat.
void print_layers(const TraceLayers& layers);

struct Repeat {
  SimOutcome sim;
  HostCost host;
  TraceLayers layers;  ///< filled by traced repeats only
};

/// Build, run and tear down one repeat of `cfg`.  A traced repeat writes
/// its Chrome trace JSON to `trace_path` when that is non-empty; returns
/// false in `wrote_trace` on an I/O failure.
[[nodiscard]] Repeat run_repeat(const RunConfig& cfg,
                                const std::string& trace_path,
                                bool& wrote_trace);

/// Build one repeat's Domain, servers and clients, then tear it down
/// without running it; returns the set-up time (HostCost::setup_s).
[[nodiscard]] double setup_seconds(const RunConfig& cfg);

/// The paper's unloaded opens (E4), measured in a fresh Domain.
struct Calibration {
  double direct_remote_ms = 0;  ///< paper: 3.70 ms
  double prefix_remote_ms = 0;  ///< paper: 7.69 ms
};
[[nodiscard]] Calibration calibrate();

/// Events per host second of an empty self-rescheduling event loop (the
/// machine floor every workload's events/s is expressed against).
[[nodiscard]] double floor_events_per_s(std::uint64_t events);

}  // namespace vbench
