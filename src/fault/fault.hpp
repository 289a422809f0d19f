// V-fault: deterministic fault injection for the simulated V domain
// (DESIGN.md 4h).
//
// The paper's recovery story (sections 2.3 and 4) is that stale or broken
// name bindings are *detected* (kNoReply, invalid context) and *repaired*
// by re-querying the server group — which only matters on a network that
// actually loses packets and hosts that actually die.  A FaultPlan is the
// scripted adversary for one run: seed-driven per-link packet faults
// (drop / duplicate / reorder-by-delay) applied at the kernel send/deliver
// boundary, plus scheduled crash / restart / pause / resume events on any
// host, plus the retransmission policy the kernel uses to mask the losses.
//
// Everything is deterministic: all randomness flows from the plan's own
// seeded Rng, and every verdict draws the same number of variates, so
// across lossy plans the per-seed random stream keeps its shape whatever
// the rates (runs differing only in probabilities stay comparable
// event-for-event).
//
// A plan only adds faults.  The transaction rule (a reply names the request
// it answers; a copy, transfer or reply of a superseded transaction is
// dropped) is the kernel's own and holds in every domain (PROTOCOL.md §12).
// Every installed plan adds its host lifecycle schedule; a plan whose links
// can fault (!lossless()) also arms loss masking, i.e. the per-packet
// verdicts, retransmission under the RetryPolicy and the server-side
// duplicate suppression.  A lossless plan (crash / pause schedules only)
// draws no variates at all: the kernel never asks it for a verdict.
// Link faults are frozen when the plan is installed (set_link and
// set_default_link then fail a V_CHECK): a Send issued under a lossless plan
// arms no retransmit timer, so a link that turned lossy later could park
// its client forever.
//
// A Domain with no plan installed never consults one: its warm path pays
// one flag test per remote packet.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace v::fault {

/// Per-direction link fault rates.  Probabilities are independent per
/// packet; `reorder_delay` is the extra latency a reordered (or duplicated)
/// copy suffers, which is what actually makes it arrive out of order.
struct LinkFaults {
  double drop = 0.0;       ///< P(packet silently lost)
  double duplicate = 0.0;  ///< P(a delayed second copy is also delivered)
  double reorder = 0.0;    ///< P(packet is held back past its successors)
  sim::SimDuration reorder_delay = 2 * sim::kMillisecond;
};

/// Client-side retransmission policy for reliable Send transactions.
/// Timeouts are simulated time; the budget counts retransmissions (so a
/// send makes at most 1 + budget delivery attempts before kNoReply).
struct RetryPolicy {
  sim::SimDuration initial_timeout = 10 * sim::kMillisecond;
  double backoff = 2.0;
  sim::SimDuration max_timeout = 80 * sim::kMillisecond;
  std::uint32_t budget = 6;
};

/// One scheduled host lifecycle event.  `then` (optional) runs right after
/// the kernel applies the event — restart events use it to respawn servers,
/// which is exactly the paper's "rebinding after recovery" scenario.
struct HostEvent {
  enum class Kind : std::uint8_t { kCrash, kRestart, kPause, kResume };

  sim::SimTime at = 0;
  std::uint16_t host = 0;  ///< raw HostId value
  Kind kind = Kind::kCrash;
  std::function<void()> then;
};

/// The plan's verdict on one packet about to cross a link.  All delays are
/// non-negative, so fault jitter can never schedule into the past (the
/// event loop's negative-delay clamp counter must stay zero under faults).
struct PacketDecision {
  bool drop = false;
  bool duplicate = false;
  sim::SimDuration extra_delay = 0;  ///< added to the original copy
  sim::SimDuration dup_delay = 0;    ///< added to the duplicate copy
};

/// Counters for everything the plan did and everything the kernel's
/// reliability machinery did in response, counted only while the plan is
/// installed.  The kernel owns the increments of the transaction fields.
/// Under a lossless plan the packet and loss-masking counters stay zero: no
/// verdict is drawn, nothing is retransmitted, suppressed or replayed.
struct FaultStats {
  std::uint64_t packets_seen = 0;
  std::uint64_t drops = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reorders = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t pauses = 0;
  std::uint64_t resumes = 0;
  // Transactions (incremented by ipc::Domain):
  std::uint64_t retransmits = 0;             ///< client copies re-sent
  std::uint64_t budget_exhausted = 0;        ///< sends that gave up (kNoReply)
  std::uint64_t dup_requests_suppressed = 0; ///< dup while still pending
  std::uint64_t cached_replies_replayed = 0; ///< dup after reply: replayed
  std::uint64_t forwards_replayed = 0;       ///< dup after forward: re-driven
  std::uint64_t stale_replies_dropped = 0;   ///< reply to a superseded txn
};

/// A scripted adversary for one Domain run.  Construct, configure links /
/// events / retry policy, then hand to Domain::install_faults.  The plan
/// must outlive the domain's run.
class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed = 0xFA177ULL);

  /// Fault rates for every link without a specific override.  Local
  /// delivery (sender and receiver on one host) is never faulted: the
  /// paper's local IPC does not cross the wire.  Links are configured
  /// before install: after Domain::install_faults both setters fail a
  /// V_CHECK.
  void set_default_link(const LinkFaults& faults);
  /// Fault rates for the directed link `from` -> `to` (raw HostId values).
  void set_link(std::uint16_t from, std::uint16_t to,
                const LinkFaults& faults);

  /// True when no link can drop, duplicate or reorder a packet: the
  /// default link and every override have all three rates at zero.  The
  /// kernel then arms no loss masking for this plan (see the file comment).
  [[nodiscard]] bool lossless() const noexcept;
  /// Freeze the link configuration (Domain::install_faults calls this).
  void freeze_links() noexcept { links_frozen_ = true; }

  void set_retry(const RetryPolicy& policy);
  [[nodiscard]] const RetryPolicy& retry() const noexcept { return retry_; }

  /// Schedule host lifecycle events (times are absolute simulated time).
  void crash_at(sim::SimTime at, std::uint16_t host,
                std::function<void()> then = {});
  void restart_at(sim::SimTime at, std::uint16_t host,
                  std::function<void()> then = {});
  void pause_at(sim::SimTime at, std::uint16_t host,
                std::function<void()> then = {});
  void resume_at(sim::SimTime at, std::uint16_t host,
                 std::function<void()> then = {});
  [[nodiscard]] const std::vector<HostEvent>& events() const noexcept {
    return events_;
  }

  /// Decide the fate of one packet crossing `from` -> `to`.  Draws a fixed
  /// number of variates per call regardless of outcome.  The kernel calls
  /// it only for a plan that is not lossless().
  [[nodiscard]] PacketDecision on_packet(std::uint16_t from,
                                         std::uint16_t to);

  [[nodiscard]] FaultStats& stats() noexcept { return stats_; }
  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }

 private:
  [[nodiscard]] const LinkFaults& link(std::uint16_t from,
                                       std::uint16_t to) const;

  sim::Rng rng_;
  LinkFaults default_link_;
  std::map<std::pair<std::uint16_t, std::uint16_t>, LinkFaults> links_;
  RetryPolicy retry_;
  std::vector<HostEvent> events_;
  FaultStats stats_;
  bool links_frozen_ = false;
};

}  // namespace v::fault
