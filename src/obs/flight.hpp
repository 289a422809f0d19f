// V-blackbox flight recorder (observability layer, round 2).
//
// The ROADMAP's production-day workloads (thousands of hosts, millions of
// Zipf-distributed opens) make PR 3's record-everything V-trace both the
// bottleneck and useless: unbounded JSON, and no way to find the one bad
// open among millions.  The flight recorder is the other half of the
// answer (head-based sampling in trace.hpp is the first): a fixed-size
// per-host ring of compact 32-byte binary event records — send / reply /
// forward, timer fires, gate acquire/release, retransmits, fault
// injections — cheap enough to stay on for every run.  Nothing is written
// anywhere until a dump trigger fires (chaos-oracle failure, kNoReply
// retry-budget exhaustion, the event-loop watchdog, or an on-demand read
// of `[metrics] flight dump`), at which point the last N events on every
// involved host render through the same Chrome trace-event emitter as
// V-trace, so a failed chaos seed yields a Perfetto-loadable post-mortem.
//
// Events carry SIMULATED time and deterministic sequence numbers only, so
// a dump of the same seed is byte-identical across runs — the dump IS a
// reproduction artifact, not a log file.
//
// FlightRecorder::record() and SamplePolicy::decide() are V_HOT_PATH, so
// V-lint proves them allocation-free.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotate.hpp"
#include "sim/time.hpp"

namespace v::obs {

/// Events kept per ring (one ring per host + ring 0 for the domain/loop).
/// 512 × 32 B = 16 KiB per host — small enough to be always-on, deep
/// enough to cover several retry budgets of traffic around a failure.
inline constexpr std::size_t kDefaultFlightCapacity = 512;

/// What a flight-recorder record describes.  Values are part of the dump
/// format documented in DESIGN.md §4k — append, don't renumber.
enum class FlightKind : std::uint8_t {
  kSend = 1,         ///< kernel Send accepted (actor=sender, peer=dest)
  kReply = 2,        ///< reply delivered (actor=replier, peer=sender)
  kForward = 3,      ///< Forward re-targeted a transaction
  kTimer = 4,        ///< event-loop dispatched a scheduled action
  kGateAcquire = 5,  ///< CSNH mutation gate acquired (arg=gate hash)
  kGateRelease = 6,  ///< CSNH mutation gate released (arg=held ns)
  kRetransmit = 7,   ///< kernel retransmitted an unanswered Send
  kFaultDrop = 8,    ///< fault plan dropped a packet
  kFaultDup = 9,     ///< fault plan duplicated a packet
  kHostDown = 10,    ///< host crashed or paused (code: 0=crash, 1=pause)
  kHostUp = 11,      ///< host restarted or resumed (code: 0=restart, 1=resume)
  kBudgetExhausted = 12,  ///< retry budget spent, kNoReply synthesized
  kWatchdog = 13,    ///< watchdog tripped (arg=blocked ns)
  kDump = 14,        ///< a dump trigger fired (code: trigger id)
};

/// Human label for a FlightKind ("send", "timer", ...).
std::string_view flight_kind_label(FlightKind kind) noexcept;

/// One 32-byte flight-recorder record.  Fixed layout, simulated time only.
struct FlightEvent {
  sim::SimTime at = 0;       ///< simulated ns
  std::uint64_t arg = 0;     ///< kind-specific (trace id, gate hash, ns)
  std::uint32_t actor = 0;   ///< pid the event is attributed to
  std::uint32_t peer = 0;    ///< counterparty pid (0 when n/a)
  std::uint32_t seq = 0;     ///< global record sequence (dump ordering)
  std::uint16_t code = 0;    ///< request/reply code (0 when n/a)
  std::uint8_t kind = 0;     ///< FlightKind
  std::uint8_t flags = 0;    ///< bit 0: envelope had the sampled bit
};
static_assert(sizeof(FlightEvent) == 32, "flight records are 32-byte PODs");

namespace detail {

/// splitmix64 finalizer (same mix the event loop uses for fuzz tie keys):
/// pure integer arithmetic, the sampler's only moving part.
V_HOT_PATH
inline std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace detail

/// Head-based sampling policy for V-trace: the keep/skip decision is made
/// ONCE at the root span (kernel Send) and carried in the envelope's
/// sampled bit, so a forwarded request is either traced end-to-end or not
/// at all.  Decisions come from a private splitmix64 counter — never from
/// the domain's RNG and never from sim state — so enabling or tuning
/// sampling cannot change a single measured number.
class SamplePolicy {
 public:
  /// Default keep probability, [0, 1].  1.0 (the default) samples every
  /// trace — existing single-workload tests and examples see no change.
  void set_rate(double rate) { default_rate_ = clamp01(rate); }
  [[nodiscard]] double rate() const noexcept { return default_rate_; }

  /// Per-opcode override (e.g. keep 1% of opens but every make-context).
  void set_opcode_rate(std::uint16_t code, double rate) {
    for (OpcodeRate& o : opcode_rates_) {
      if (o.code == code) {
        o.rate = clamp01(rate);
        return;
      }
    }
    opcode_rates_.push_back({clamp01(rate), code});
  }

  /// The head decision for one root span.  Deterministic: the Nth call
  /// with the same configuration always answers the same way.
  V_HOT_PATH
  bool decide(std::uint16_t code) noexcept {
    double rate = default_rate_;
    for (const OpcodeRate& o : opcode_rates_) {
      if (o.code == code) {
        rate = o.rate;
        break;
      }
    }
    if (rate >= 1.0) {
      ++sampled_;
      return true;
    }
    bool keep = false;
    if (rate > 0.0) {
      // 53-bit uniform draw in [0, 1) from the private counter.
      const std::uint64_t draw = detail::mix(seq_);
      keep = static_cast<double>(draw >> 11) * 0x1.0p-53 < rate;
    }
    ++seq_;
    if (keep) {
      ++sampled_;
    } else {
      ++skipped_;
    }
    return keep;
  }

  [[nodiscard]] std::uint64_t sampled() const noexcept { return sampled_; }
  [[nodiscard]] std::uint64_t skipped() const noexcept { return skipped_; }

 private:
  static double clamp01(double r) noexcept {
    return r < 0.0 ? 0.0 : (r > 1.0 ? 1.0 : r);
  }

  struct OpcodeRate {
    double rate = 1.0;
    std::uint16_t code = 0;
  };

  double default_rate_ = 1.0;
  std::vector<OpcodeRate> opcode_rates_;  // tiny; linear scan beats hashing
  std::uint64_t seq_ = 0;
  std::uint64_t sampled_ = 0;
  std::uint64_t skipped_ = 0;
};

/// The per-domain flight recorder: ring 0 for domain-scope events (timer
/// fires, watchdog) plus one ring per attached host.  record() is the
/// always-on path and is proven allocation-free by V-lint; everything
/// else (attach, dump, render) is cold.
class FlightRecorder {
 public:
  FlightRecorder() { reset_rings(1); }

  /// Events kept per ring.  Rounded up to a power of two.  Re-sizing
  /// clears recorded history (capacity is a construction-time decision;
  /// the setter exists for benches probing overhead vs depth).
  void set_capacity(std::size_t events_per_ring);
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Make `host` (1-based, dense — ipc::Domain::add_host order) a ring.
  /// `label` names the ring's Perfetto track.
  void attach_host(std::uint16_t host, std::string_view label);

  /// Append one record to `host`'s ring (0 or an unattached id lands in
  /// the domain ring).  Always-on: a bounds check, a masked store, and a
  /// counter bump — nothing else.  The rings live in ONE flat buffer
  /// (ring h occupies slots [h << shift, (h+1) << shift)) so the slot
  /// address needs no pointer chase through a per-ring vector.
  V_HOT_PATH
  void record(std::uint16_t host, FlightKind kind, sim::SimTime at,
              std::uint32_t actor, std::uint32_t peer, std::uint16_t code,
              std::uint64_t arg, std::uint8_t flags = 0) noexcept {
    if (host >= heads_.size()) host = 0;
    const std::uint64_t head = heads_[host];
    heads_[host] = head + 1;
    FlightEvent& ev =
        buf_[(static_cast<std::size_t>(host) << shift_) +
             static_cast<std::size_t>(head & mask_)];
    ev.at = at;
    ev.arg = arg;
    ev.actor = actor;
    ev.peer = peer;
    ev.seq = next_seq_++;
    ev.code = code;
    ev.kind = static_cast<std::uint8_t>(kind);
    ev.flags = flags;
  }

  /// Total records ever written / overwritten (ring wrap losses).
  [[nodiscard]] std::uint64_t records() const noexcept;
  [[nodiscard]] std::uint64_t overwritten() const noexcept;
  [[nodiscard]] std::uint64_t triggers() const noexcept { return triggers_; }
  [[nodiscard]] std::size_t rings() const noexcept { return heads_.size(); }

  /// Where trigger() writes its dump ("" = render in memory only).
  void set_dump_path(std::string path) { dump_path_ = std::move(path); }
  [[nodiscard]] const std::string& dump_path() const noexcept {
    return dump_path_;
  }

  /// Fire a dump trigger: records a kDump event (code = `trigger_code`,
  /// so the dump itself shows why it exists) and, when a dump path is
  /// set, writes the rendered document there.  Returns true when a file
  /// was written.  Cold by design — triggers mean something went wrong.
  bool trigger(std::uint16_t trigger_code, sim::SimTime at);

  /// All rings' surviving records, merged in (at, seq) order, as a Chrome
  /// trace-event document (same shape as TraceSink::chrome_json: one
  /// Perfetto track per ring, instant-style zero-duration slices).
  [[nodiscard]] std::string chrome_json() const;
  /// Write chrome_json() to `path`.  Returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

  void clear();

 private:
  void reset_rings(std::size_t count);

  std::vector<FlightEvent> buf_;      ///< all rings, capacity() slots each
  std::vector<std::uint64_t> heads_;  ///< per ring: total appended
  std::vector<std::string> labels_;
  std::size_t mask_ = kDefaultFlightCapacity - 1;
  std::size_t shift_ = 0;  ///< log2(capacity()): ring h starts at h << shift
  std::uint32_t next_seq_ = 0;
  std::uint64_t triggers_ = 0;
  std::string dump_path_;
};

/// Dump-trigger codes recorded in the kDump event (DESIGN.md §4k).
inline constexpr std::uint16_t kDumpChaosOracle = 1;
inline constexpr std::uint16_t kDumpRetryExhausted = 2;
inline constexpr std::uint16_t kDumpWatchdog = 3;
inline constexpr std::uint16_t kDumpOnDemand = 4;

}  // namespace v::obs
