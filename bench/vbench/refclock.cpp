// Host time in reference seconds (see RefStopwatch in vbench.hpp).
//
// The probe is a binary-heap timer queue over 16k timers with 256-byte
// payloads: the shape of an event loop, written here so that no change
// under src/ can speed it up or slow it down.  On a shared host the speed
// of the machine itself moves by 25% within seconds and by 3x within
// minutes, as other tenants come and go; the probe slows with it, so wall
// time scaled by the probe's speed measures the simulator's own cost.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "vbench.hpp"
#include "wload/rng.hpp"

namespace vbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Probe speed that defines the reference machine: there, one wall second
/// is one reference second.
constexpr double kRefProbeOpsPerS = 5e6;
/// Probe operations per burst: about a millisecond of work.
constexpr std::uint64_t kBurstOps = 5000;

class Probe {
 public:
  Probe() : state_(kTimers) {
    heap_.reserve(kTimers);
    for (std::uint32_t t = 0; t < kTimers; ++t) arm(t);
  }

  /// One burst; its rate in probe operations per wall second.
  double burst() {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kBurstOps; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      const Timer due = heap_.back();
      heap_.pop_back();
      now_ = due.at;
      arm(due.id);
    }
    return static_cast<double>(kBurstOps) /
           std::chrono::duration<double>(Clock::now() - t0).count();
  }

 private:
  static constexpr std::uint32_t kTimers = 1 << 14;

  struct Timer {
    std::uint64_t at;
    std::uint64_t seq;
    std::uint32_t id;
  };
  struct Later {
    bool operator()(const Timer& a, const Timer& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  struct Payload {
    std::uint64_t words[32];
  };

  /// Touch the timer's payload and re-arm it: a quarter fire at once, half
  /// within 2 ms, a quarter within 100 ms (nanosecond ticks).
  void arm(std::uint32_t id) {
    const std::uint64_t r = rng_.next();
    Payload& p = state_[id];
    p.words[r & 31] += r;
    p.words[(r >> 5) & 31] ^= p.words[r & 31];
    std::uint64_t delay = 0;
    if ((r & 3) == 1 || (r & 3) == 2) {
      delay = (r >> 2) % 2'000'000;
    } else if ((r & 3) == 3) {
      delay = (r >> 2) % 100'000'000;
    }
    heap_.push_back({now_ + delay, seq_++, id});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  std::vector<Timer> heap_;
  std::vector<Payload> state_;
  v::wload::Splitmix64 rng_{0x1984'0601ULL};
  std::uint64_t now_ = 0;
  std::uint64_t seq_ = 0;
};

double probe_burst() {
  static Probe probe;  // one churn, continued burst after burst
  return probe.burst();
}

}  // namespace

RefStopwatch::RefStopwatch() : rate_(probe_burst()), t0_(Clock::now()) {}

Lap RefStopwatch::lap() {
  const double wall = std::chrono::duration<double>(Clock::now() - t0_).count();
  const double rate = probe_burst();
  const Lap out{wall, wall * (rate_ + rate) / 2 / kRefProbeOpsPerS};
  rate_ = rate;
  t0_ = Clock::now();
  return out;
}

}  // namespace vbench
