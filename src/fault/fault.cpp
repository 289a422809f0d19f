#include "fault/fault.hpp"

#include "common/check.hpp"

namespace v::fault {

namespace {
bool can_fault(const LinkFaults& lf) noexcept {
  return lf.drop > 0.0 || lf.duplicate > 0.0 || lf.reorder > 0.0;
}
}  // namespace

FaultPlan::FaultPlan(std::uint64_t seed) : rng_(seed) {}

void FaultPlan::set_default_link(const LinkFaults& faults) {
  V_CHECK(!links_frozen_);  // links are fixed once the plan is installed
  default_link_ = faults;
}

void FaultPlan::set_link(std::uint16_t from, std::uint16_t to,
                         const LinkFaults& faults) {
  V_CHECK(!links_frozen_);  // links are fixed once the plan is installed
  links_[{from, to}] = faults;
}

bool FaultPlan::lossless() const noexcept {
  if (can_fault(default_link_)) return false;
  for (const auto& [_, lf] : links_) {
    if (can_fault(lf)) return false;
  }
  return true;
}

void FaultPlan::set_retry(const RetryPolicy& policy) { retry_ = policy; }

void FaultPlan::crash_at(sim::SimTime at, std::uint16_t host,
                         std::function<void()> then) {
  events_.push_back({at, host, HostEvent::Kind::kCrash, std::move(then)});
}

void FaultPlan::restart_at(sim::SimTime at, std::uint16_t host,
                           std::function<void()> then) {
  events_.push_back({at, host, HostEvent::Kind::kRestart, std::move(then)});
}

void FaultPlan::pause_at(sim::SimTime at, std::uint16_t host,
                         std::function<void()> then) {
  events_.push_back({at, host, HostEvent::Kind::kPause, std::move(then)});
}

void FaultPlan::resume_at(sim::SimTime at, std::uint16_t host,
                          std::function<void()> then) {
  events_.push_back({at, host, HostEvent::Kind::kResume, std::move(then)});
}

const LinkFaults& FaultPlan::link(std::uint16_t from,
                                  std::uint16_t to) const {
  auto it = links_.find({from, to});
  return it != links_.end() ? it->second : default_link_;
}

PacketDecision FaultPlan::on_packet(std::uint16_t from, std::uint16_t to) {
  ++stats_.packets_seen;
  const LinkFaults& lf = link(from, to);
  // Always draw exactly four variates so the random stream keeps its shape
  // regardless of rates or outcomes: a seed produces the "same run" at
  // every loss rate, just with different verdicts.
  const bool drop = rng_.chance(lf.drop);
  const bool duplicate = rng_.chance(lf.duplicate);
  const bool reorder = rng_.chance(lf.reorder);
  const double jitter = rng_.uniform01();

  PacketDecision d;
  if (drop) {
    ++stats_.drops;
    d.drop = true;
    return d;
  }
  if (reorder) {
    ++stats_.reorders;
    d.extra_delay = lf.reorder_delay;
  }
  if (duplicate) {
    ++stats_.duplicates;
    d.duplicate = true;
    // The copy lands somewhere within reorder_delay after the original —
    // never before it, never in the past (delays stay non-negative).
    d.dup_delay =
        static_cast<sim::SimDuration>(jitter *
                                      static_cast<double>(lf.reorder_delay));
  }
  return d;
}

}  // namespace v::fault
