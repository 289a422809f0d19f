// Engine-equivalence suite: proves the key-heap scheduler, with its
// same-instant lane, fires events in EXACTLY the order the old
// std::priority_queue engine did.
//
// The golden arrays and hashes below were recorded ONCE by running the
// scenarios in engine_scenarios.hpp against that engine (the recorder built
// event_loop.cpp at its last priority_queue revision).  They cover FIFO tie
// order, the seed-0 fuzz permutation in full, and a 16-seed fuzz matrix
// compressed to order hashes, with far-future stragglers; the differential
// suite below checks the same order on seeded random schedules.  A mismatch
// here means the engine's observable semantics changed; do NOT re-record
// the goldens without a deliberate (documented) tie-rule change.
#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <optional>
#include <queue>
#include <tuple>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "engine_scenarios.hpp"
#include "sim/awaitables.hpp"
#include "sim/event_loop.hpp"
#include "sim/frame_pool.hpp"
#include "sim/task.hpp"

namespace v::test {
namespace {

constexpr int kMixedFifoGolden[] = {
    85, 92, 149, 27, 147, 154, 164, 166, 165, 167, 97, 153, 
    168, 169, 5, 83, 119, 128, 7, 50, 88, 109, 120, 134, 
    137, 157, 170, 171, 47, 3, 18, 21, 39, 48, 172, 174, 
    176, 178, 180, 177, 179, 173, 175, 181, 135, 182, 183, 8, 
    32, 44, 53, 54, 65, 74, 118, 184, 185, 61, 77, 138, 
    139, 186, 30, 76, 81, 103, 188, 190, 187, 189, 38, 43, 
    58, 82, 191, 29, 33, 35, 70, 192, 193, 14, 25, 26, 
    89, 114, 156, 194, 196, 195, 42, 198, 197, 41, 112, 127, 
    129, 200, 199, 201, 49, 51, 75, 78, 202, 204, 206, 207, 
    203, 205, 6, 11, 46, 63, 72, 91, 136, 208, 210, 212, 
    209, 211, 213, 12, 110, 142, 214, 215, 13, 60, 108, 158, 
    216, 218, 219, 217, 133, 152, 20, 56, 111, 220, 66, 95, 
    121, 222, 223, 221, 84, 93, 116, 224, 226, 227, 57, 132, 
    228, 230, 225, 229, 231, 2, 10, 24, 105, 115, 123, 125, 
    232, 234, 236, 237, 235, 15, 73, 106, 145, 238, 233, 1, 
    4, 23, 52, 79, 239, 17, 34, 40, 69, 100, 101, 117, 
    124, 155, 240, 242, 241, 243, 9, 67, 80, 86, 244, 0, 
    45, 64, 71, 96, 246, 248, 250, 245, 247, 251, 150, 151, 
    252, 249, 253, 28, 36, 99, 122, 148, 254, 256, 255, 257, 
    16, 107, 130, 131, 141, 144, 159, 258, 260, 262, 263, 259, 
    261, 68, 98, 104, 22, 55, 59, 87, 113, 264, 265, 31, 
    90, 126, 146, 266, 268, 267, 269, 19, 37, 62, 94, 102, 
    140, 143, 270, 271, 160, 161, 162, 163};
constexpr int kBurstFifoGolden[] = {
    -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 
    11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 
    23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 
    35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 
    47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 
    59, -2};
constexpr int kMixedSeed0Golden[] = {
    149, 85, 92, 154, 147, 164, 27, 166, 165, 167, 153, 168, 
    97, 169, 128, 83, 119, 5, 157, 120, 50, 137, 88, 7, 
    170, 109, 134, 171, 47, 18, 48, 21, 3, 178, 39, 180, 
    172, 176, 174, 177, 179, 175, 173, 181, 135, 182, 183, 53, 
    8, 74, 44, 118, 65, 54, 184, 32, 185, 77, 139, 138, 
    186, 61, 30, 103, 188, 81, 190, 76, 187, 189, 58, 82, 
    43, 38, 191, 35, 70, 29, 33, 192, 193, 89, 26, 14, 
    114, 194, 156, 196, 25, 195, 42, 198, 197, 41, 129, 200, 
    112, 127, 199, 201, 49, 78, 202, 51, 75, 206, 204, 207, 
    203, 205, 6, 72, 46, 208, 63, 11, 136, 91, 212, 210, 
    209, 211, 213, 110, 12, 214, 142, 215, 108, 60, 218, 158, 
    216, 13, 219, 217, 152, 133, 111, 20, 220, 56, 66, 222, 
    121, 95, 223, 221, 116, 93, 224, 84, 226, 227, 132, 228, 
    57, 230, 225, 229, 231, 24, 115, 10, 123, 234, 232, 125, 
    105, 236, 2, 237, 235, 145, 106, 15, 238, 73, 233, 52, 
    79, 4, 1, 23, 239, 34, 40, 17, 69, 101, 240, 155, 
    117, 242, 100, 124, 241, 243, 67, 9, 244, 80, 86, 96, 
    45, 64, 248, 246, 0, 250, 71, 245, 247, 251, 150, 252, 
    151, 249, 253, 28, 122, 99, 36, 256, 148, 254, 255, 257, 
    144, 258, 16, 159, 131, 130, 260, 141, 262, 107, 263, 259, 
    261, 68, 104, 98, 113, 59, 87, 264, 55, 22, 265, 31, 
    126, 266, 146, 90, 268, 267, 269, 94, 62, 143, 102, 270, 
    19, 37, 140, 271, 160, 161, 162, 163};
constexpr int kBurstSeed0Golden[] = {
    -1, 33, 17, 23, 5, 34, 44, 47, 25, 20, 15, 48, 
    30, 27, 40, 50, 9, 13, 45, 46, 7, 26, 19, 10, 
    28, 51, 32, 3, 0, 53, 2, 6, 38, 11, 49, 8, 
    43, 22, 41, 14, 29, 18, 39, 24, 35, 36, 56, 21, 
    54, 55, 4, 57, 42, 37, 52, 16, 58, 12, 59, 31, 
    1, -2};
constexpr std::uint64_t kMixedSeedHashes[16] = {
    0xfc1ca8c877cb6e65ULL,     0x67e3acc237434ee3ULL,
    0x419165013b76894dULL,     0xd0088f9e865136ebULL,
    0x25a5e10c2c63de43ULL,     0x247189581b9af3abULL,
    0x00bbae81af84918fULL,     0x672613db964654b5ULL,
    0xc1210f9d1db2ce51ULL,     0x5a60a05dbda26cc5ULL,
    0xd1b9032e310d449fULL,     0x687bc8eec34c1405ULL,
    0x8b1ba41d522149e1ULL,     0x8086f5e425999afdULL,
    0xf51d6c3afe62f94dULL,     0x21f4fa4825cabeafULL,
};
constexpr std::uint64_t kBurstSeedHashes[16] = {
    0x5559d2af095cc0daULL,     0x80095daffeab8f7aULL,
    0xb3a70d4b7f99c402ULL,     0x2973c11259f1e9e0ULL,
    0x39d01f2ff643c3b0ULL,     0xc0a1f665dc651f88ULL,
    0x12c7beb7758c810cULL,     0x3d81fc0e1ef10b72ULL,
    0x907974f211feab4cULL,     0xc9e3fcd0c8a082f8ULL,
    0xe1fda967b63c7feeULL,     0x5d9e8660c5506064ULL,
    0x6490e45b3bc6d562ULL,     0xd08be3c04ab961c8ULL,
    0xece47a7a72fff352ULL,     0x676725297accee48ULL,
};

constexpr std::uint64_t kSeedBase = 0x5eed0000ULL;

void expect_order(const std::vector<int>& order, const int* golden,
                  std::size_t golden_size, const char* label) {
  ASSERT_EQ(order.size(), golden_size) << label;
  for (std::size_t i = 0; i < golden_size; ++i) {
    ASSERT_EQ(order[i], golden[i]) << label << " diverges at position " << i;
  }
}

TEST(EngineEquivalence, MixedScheduleFifoMatchesOldEngine) {
  expect_order(mixed_schedule_order(std::nullopt), kMixedFifoGolden,
               std::size(kMixedFifoGolden), "mixed/fifo");
}

TEST(EngineEquivalence, BurstFifoMatchesOldEngine) {
  expect_order(burst_order(std::nullopt), kBurstFifoGolden,
               std::size(kBurstFifoGolden), "burst/fifo");
}

TEST(EngineEquivalence, MixedScheduleSeed0MatchesOldEngine) {
  expect_order(mixed_schedule_order(kSeedBase), kMixedSeed0Golden,
               std::size(kMixedSeed0Golden), "mixed/seed0");
}

TEST(EngineEquivalence, BurstSeed0MatchesOldEngine) {
  expect_order(burst_order(kSeedBase), kBurstSeed0Golden,
               std::size(kBurstSeed0Golden), "burst/seed0");
}

// The full 16-seed fuzz matrix, compressed: identical firing order <=>
// identical FNV-1a hash (the full seed-0 arrays above keep one seed
// human-diffable when this trips).
TEST(EngineEquivalence, SixteenSeedFuzzMatrixMatchesOldEngine) {
  for (int s = 0; s < 16; ++s) {
    const std::uint64_t seed = kSeedBase + static_cast<std::uint64_t>(s);
    EXPECT_EQ(order_hash(mixed_schedule_order(seed)), kMixedSeedHashes[s])
        << "mixed schedule diverged under fuzz seed 0x" << std::hex << seed;
    EXPECT_EQ(order_hash(burst_order(seed)), kBurstSeedHashes[s])
        << "burst diverged under fuzz seed 0x" << std::hex << seed;
  }
}

// --- run_until / pending boundary semantics -------------------------------

TEST(EngineBoundary, RunUntilIncludesEventsExactlyAtDeadline) {
  sim::EventLoop loop;
  std::vector<int> fired;
  loop.schedule_at(1'000, [&fired] { fired.push_back(1); });
  loop.schedule_at(2'000, [&fired] { fired.push_back(2); });
  loop.schedule_at(2'001, [&fired] { fired.push_back(3); });
  loop.run_until(2'000);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));  // deadline event DID run
  EXPECT_EQ(loop.now(), 2'000);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_until(2'001);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EngineBoundary, RunUntilOnEmptyQueueAdvancesTime) {
  sim::EventLoop loop;
  loop.run_until(5'000'000);
  EXPECT_EQ(loop.now(), 5'000'000);
  EXPECT_EQ(loop.pending(), 0u);
  // Time never runs backwards, even for a deadline in the past.
  loop.run_until(1'000);
  EXPECT_EQ(loop.now(), 5'000'000);
}

TEST(EngineBoundary, PendingCountsNearAndFarFutureEvents) {
  sim::EventLoop loop;
  int ran = 0;
  loop.schedule_at(0, [&ran] { ++ran; });             // now
  loop.schedule_at(50'000'000, [&ran] { ++ran; });    // 50 ms out
  constexpr sim::SimTime kFar = 6'000'000'000'000'000;  // ~69 simulated days
  loop.schedule_at(kFar, [&ran] { ++ran; });
  EXPECT_EQ(loop.pending(), 3u);
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(loop.pending(), 2u);
  loop.run_until_idle();
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(loop.events_executed(), 3u);
}

// --- the same-instant lane -------------------------------------------------
// With fuzz off, an event scheduled at exactly now() skips the heap and
// queues in a FIFO lane.  These pin the lane's place in the (at, seq)
// order; the EngineEquivalence goldens above pin it on whole scenarios,
// and their fuzz halves (the 16-seed matrix, whose burst scenario has
// same-instant arrivals) pin that fuzz bypasses the lane.

TEST(EngineLane, NowEventFiresAfterEarlierDueEventsAtSameInstant) {
  sim::EventLoop loop;
  std::vector<int> fired;
  loop.schedule_at(1'000, [&loop, &fired] {
    fired.push_back(1);
    // Lane events at now(): they must wait for event 2, which was
    // scheduled earlier at this same instant and sits in the heap.
    loop.schedule_after(0, [&fired] { fired.push_back(3); });
    loop.schedule_at(10, [&fired] { fired.push_back(4); });  // clamped
  });
  loop.schedule_at(1'000, [&fired] { fired.push_back(2); });
  loop.schedule_at(1'001, [&fired] { fired.push_back(5); });
  loop.run_until_idle();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(EngineLane, LaneIsFifoAcrossActionsAndResumes) {
  sim::EventLoop loop;
  std::vector<int> fired;
  struct ResumeAt {
    sim::EventLoop& loop;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      loop.resume_after(0, h, nullptr);
    }
    void await_resume() const noexcept {}
  };
  auto body = [](sim::EventLoop& l, std::vector<int>& out) -> sim::Co<void> {
    co_await ResumeAt{l};
    out.push_back(2);
  };
  sim::Fiber fiber(body(loop, fired));
  loop.schedule_after(0, [&fired] { fired.push_back(1); });
  fiber.start();  // parks with a resume event behind action 1
  loop.schedule_after(0, [&fired] { fired.push_back(3); });
  EXPECT_EQ(loop.stats().actions_inline, 3u);  // resumes count as inline
  loop.run_until_idle();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(fiber.done());
}

TEST(EngineLane, RunUntilDrainsLaneBeforeReturning) {
  sim::EventLoop loop;
  std::vector<int> fired;
  loop.schedule_at(2'000, [&loop, &fired] {
    fired.push_back(1);
    loop.schedule_after(0, [&loop, &fired] {
      fired.push_back(2);
      loop.schedule_after(0, [&fired] { fired.push_back(3); });
    });
  });
  loop.schedule_at(2'001, [&fired] { fired.push_back(4); });
  loop.run_until(2'000);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 2'000);
  EXPECT_EQ(loop.pending(), 1u);
  // A deadline with nothing pending moves now(); an event scheduled at the
  // new now() is a lane event, and running to that same deadline drains it.
  loop.run_until(3'000);
  loop.schedule_after(0, [&fired] { fired.push_back(5); });
  loop.run_until(3'000);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EngineLane, PendingCountsLaneEvents) {
  sim::EventLoop loop;
  loop.run_until(50);
  int ran = 0;
  loop.schedule_after(0, [&ran] { ++ran; });
  loop.schedule_after(0, [&ran] { ++ran; });
  loop.schedule_after(7, [&ran] { ++ran; });
  EXPECT_EQ(loop.pending(), 3u);
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(loop.pending(), 2u);
  EXPECT_EQ(loop.now(), 50);
  loop.run_until_idle();
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(ran, 3);
}

// --- differential: the loop against a reference priority_queue ------------
// One seeded random schedule runs twice: through EventLoop, and through a
// plain std::priority_queue over (at, tie, seq) — the original engine's
// whole ordering rule.  The same-instant lane needs no model of its own:
// with fuzz off a lane event's key is (now(), seq) with seq above every key
// already pending at now(), so the lane must fire in exactly that order.
// Each event's children are a pure function of (seed, event id), so both
// runs schedule the same events for as long as they fire them in the same
// order.  Delays span zero (the lane), sub-tick gaps, grids that make equal
// timestamps common, and jumps past 2^52 ns (the 2^36-tick horizon of the
// timer wheel the loop once used); three fibers hop through resume_after;
// the driver interleaves outside scheduling, step() and run_until slices
// and compares firing order, pending() and now() after each.
// V_FUZZ_SEED=<seed> pins one seed, V_FUZZ_SEEDS=<n> sets the count
// (default 16), as in test_schedule_fuzz.

/// The loop's splitmix64 finalizer: under fuzz an event's tie key is
/// mix64(seed ^ mix64(seq)) (event_loop.cpp).
std::uint64_t mix64(std::uint64_t x) { return scenario_rand(x); }

std::vector<std::uint64_t> differential_seeds() {
  if (const char* pin = std::getenv("V_FUZZ_SEED")) {
    return {std::strtoull(pin, nullptr, 0)};
  }
  std::size_t count = 16;
  if (const char* n = std::getenv("V_FUZZ_SEEDS")) {
    count = std::strtoull(n, nullptr, 0);
    if (count == 0) count = 1;
  }
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < count; ++i) seeds.push_back(kSeedBase + i);
  return seeds;
}

/// The random schedule both runs follow.  Ids number events in scheduling
/// order, so an event's id is also its seq in both runs.
class Script {
 public:
  static constexpr std::uint64_t kBudget = 2'000;  ///< ids per run
  static constexpr sim::SimDuration kHorizon = sim::SimDuration{1} << 52;

  explicit Script(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] std::uint64_t draw(std::uint64_t id, std::uint64_t k) const {
    return mix64(seed_ ^ mix64(id * 16 + k));
  }
  std::uint64_t take_id() { return next_id_++; }
  [[nodiscard]] bool fiber_continues() const { return next_id_ < kBudget; }

  /// A delay: zero a quarter of the time, then coarse grids (equal
  /// timestamps), sub-tick and tick-multiple gaps, spans across seconds to
  /// hours, and a few times per run a jump straddling the 2^52 ns horizon.
  sim::SimDuration delay(std::uint64_t r) {
    const std::uint64_t v = r >> 8;
    switch (r & 15) {
      case 0: case 1: case 2: case 3: return 0;
      case 4: case 5: return static_cast<sim::SimDuration>(v % 4) * 1'000;
      case 6: case 7: return static_cast<sim::SimDuration>(v % 300'000);
      case 8: return static_cast<sim::SimDuration>(v % 64) << 16;
      case 9: case 10:
        return static_cast<sim::SimDuration>(v % 8) * 5'000'000;
      case 11: return static_cast<sim::SimDuration>(v % 4) * 1'000'000'000;
      case 12: case 13:
        return static_cast<sim::SimDuration>(v & ((std::uint64_t{1} << 44) - 1));
      default:
        if (far_left_ == 0) return static_cast<sim::SimDuration>(v % 1'000);
        --far_left_;
        return kHorizon - 1 + static_cast<sim::SimDuration>(v % 3);
    }
  }

  /// Schedule the children of event `id` into `sink` (0–3 of them while
  /// the id budget lasts): absolute times on a 1 ms grid around now(),
  /// which may lie in the past (clamped to now()), or delays.
  template <typename Sink>
  void children(std::uint64_t id, Sink& sink) {
    const int count = next_id_ < kBudget ? static_cast<int>(draw(id, 0) % 4) : 0;
    for (int i = 0; i < count; ++i) {
      const std::uint64_t c = draw(id, 1 + static_cast<std::uint64_t>(i));
      if ((c >> 62) == 0) {
        constexpr sim::SimTime kGrid = 1'000'000;
        const sim::SimTime at =
            (sink.now() / kGrid + static_cast<sim::SimTime>((c >> 8) % 3) - 1) *
            kGrid;
        sink.at(at, take_id());
      } else {
        sink.after(delay(c), take_id());
      }
    }
  }

 private:
  std::uint64_t seed_;
  std::uint64_t next_id_ = 0;
  int far_left_ = 6;
};

/// EventLoop under test, recording the ids it fires.
struct LoopRun {
  explicit LoopRun(std::uint64_t seed) : script(seed) {}
  sim::EventLoop loop;
  Script script;
  std::vector<std::uint64_t> fired;

  [[nodiscard]] sim::SimTime now() const { return loop.now(); }
  void at(sim::SimTime t, std::uint64_t id) {
    loop.schedule_at(t, [this, id] { fire(id); });
  }
  void after(sim::SimDuration d, std::uint64_t id) {
    loop.schedule_after(d, [this, id] { fire(id); });
  }
  void fire(std::uint64_t id) {
    fired.push_back(id);
    script.children(id, *this);
  }
};

struct ResumeAfter {
  sim::EventLoop& loop;
  sim::SimDuration delay;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    loop.resume_after(delay, h, nullptr);
  }
  void await_resume() const noexcept {}
};

/// A fiber whose every wake-up is a resume event with its own id.
sim::Co<void> hopper(LoopRun& run) {
  for (std::uint64_t id = run.script.take_id();; id = run.script.take_id()) {
    co_await ResumeAfter{run.loop, run.script.delay(run.script.draw(id, 7))};
    run.fire(id);
    if (!run.script.fiber_continues()) co_return;
  }
}

/// The reference: one priority_queue under the original engine's key.
struct ModelRun {
  struct Event {
    sim::SimTime at;
    std::uint64_t tie;
    std::uint64_t seq;
    bool resume;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return std::tie(a.at, a.tie, a.seq) > std::tie(b.at, b.tie, b.seq);
    }
  };

  explicit ModelRun(std::uint64_t seed) : script(seed) {}
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  sim::SimTime clock = 0;
  std::optional<std::uint64_t> fuzz;
  Script script;
  std::vector<std::uint64_t> fired;

  [[nodiscard]] sim::SimTime now() const { return clock; }
  void at(sim::SimTime t, std::uint64_t id, bool resume = false) {
    const std::uint64_t tie = fuzz ? mix64(*fuzz ^ mix64(id)) : id;
    queue.push({std::max(t, clock), tie, id, resume});
  }
  void after(sim::SimDuration d, std::uint64_t id) { at(clock + d, id); }
  void hop(std::uint64_t id) {
    at(clock + script.delay(script.draw(id, 7)), id, true);
  }
  bool step() {
    if (queue.empty()) return false;
    const Event e = queue.top();
    queue.pop();
    clock = e.at;
    fired.push_back(e.seq);
    script.children(e.seq, *this);
    if (e.resume && script.fiber_continues()) hop(script.take_id());
    return true;
  }
  void run_until(sim::SimTime deadline) {
    while (!queue.empty() && queue.top().at <= deadline) step();
    clock = std::max(clock, deadline);
  }
};

/// Index of the first position where the two firing orders differ, or
/// the shorter length when one is a prefix of the other.
std::size_t first_divergence(const std::vector<std::uint64_t>& a,
                             const std::vector<std::uint64_t>& b) {
  return static_cast<std::size_t>(
      std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first - a.begin());
}

void run_differential(std::uint64_t seed, bool fuzz) {
  SCOPED_TRACE(::testing::Message()
               << (fuzz ? "fuzz" : "fifo") << " seed 0x" << std::hex << seed
               << "; reproduce with: V_FUZZ_SEED=0x" << seed
               << " tests/test_engine --gtest_filter='EngineDifferential.*'");
  LoopRun run(seed);
  ModelRun model(seed);
  if (fuzz) {
    run.loop.enable_fuzz(seed);
    model.fuzz = seed;
  }
  std::vector<std::unique_ptr<sim::Fiber>> hoppers;
  for (int f = 0; f < 3; ++f) {
    hoppers.push_back(std::make_unique<sim::Fiber>(hopper(run)));
    hoppers.back()->start();
    model.hop(model.script.take_id());
  }
  const Script outside(~seed);
  auto check = [&](std::uint64_t op) {
    ASSERT_EQ(run.fired.size(), model.fired.size()) << "after op " << op;
    const std::size_t at = first_divergence(run.fired, model.fired);
    ASSERT_EQ(at, run.fired.size())
        << "after op " << op << ": loop fired " << run.fired[at]
        << ", the reference " << model.fired[at];
    ASSERT_EQ(run.loop.pending(), model.queue.size()) << "after op " << op;
    ASSERT_EQ(run.loop.now(), model.clock) << "after op " << op;
  };
  for (std::uint64_t op = 0; op < 200; ++op) {
    const std::uint64_t r = outside.draw(op, 0);
    const std::uint64_t v = r >> 8;
    switch (r % 4) {
      case 0:  // roots from outside, at now() or later
        for (std::uint64_t i = 0; i <= v % 4; ++i) {
          const std::uint64_t d = outside.draw(op, 1 + i);
          run.after(run.script.delay(d), run.script.take_id());
          model.after(model.script.delay(d), model.script.take_id());
        }
        break;
      case 1:  // single steps
        for (std::uint64_t i = 0; i <= v % 3; ++i) {
          ASSERT_EQ(run.loop.step(), model.step()) << "op " << op;
        }
        break;
      default: {  // a run_until slice: to now(), sub-tick, ms, s, or far
        const sim::SimDuration slices[] = {
            0, static_cast<sim::SimDuration>(v % 100'000),
            static_cast<sim::SimDuration>(v % 8) * 5'000'000,
            static_cast<sim::SimDuration>(v % 2'000'000'000),
            Script::kHorizon * 2};
        const sim::SimDuration slice = slices[(v >> 32) % (v % 32 == 0 ? 5 : 4)];
        const sim::SimTime deadline = run.loop.now() + slice;
        run.loop.run_until(deadline);
        model.run_until(deadline);
        break;
      }
    }
    check(op);
    if (::testing::Test::HasFatalFailure()) return;
  }
  run.loop.run_until_idle();
  while (model.step()) {
  }
  check(200);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_GE(run.fired.size(), Script::kBudget / 2);  // the schedule did run
  for (const auto& h : hoppers) EXPECT_TRUE(h->done());
}

TEST(EngineDifferential, FifoMatchesReferenceQueue) {
  for (const std::uint64_t seed : differential_seeds()) {
    run_differential(seed, false);
  }
}

TEST(EngineDifferential, FuzzMatchesReferenceQueue) {
  for (const std::uint64_t seed : differential_seeds()) {
    run_differential(seed, true);
  }
}

// --- resume events --------------------------------------------------------

/// Sleeps `delay` through DelayAwaiter (a resume event), noting whether the
/// resume threw FiberKilled and whether the body ran past the sleep.
sim::Co<void> sleeper(sim::EventLoop& loop, sim::SimDuration delay,
                      sim::FiberState* const& state, bool& killed_seen,
                      bool& woke) {
  try {
    co_await sim::DelayAwaiter(loop, delay, state);
  } catch (const sim::FiberKilled&) {
    killed_seen = true;
    throw;
  }
  woke = true;
}

TEST(EngineResume, KilledFiberResumeThrowsFiberKilled) {
  sim::EventLoop loop;
  sim::FiberState* state = nullptr;
  bool killed_seen = false;
  bool woke = false;
  sim::Fiber fiber(sleeper(loop, 10, state, killed_seen, woke));
  state = fiber.state().get();
  fiber.start();
  EXPECT_EQ(loop.pending(), 1u);
  fiber.kill();
  loop.run_until_idle();
  EXPECT_TRUE(killed_seen);
  EXPECT_FALSE(woke);
  EXPECT_TRUE(fiber.done());
  EXPECT_EQ(fiber.error(), nullptr);  // a kill is not an error
  EXPECT_EQ(loop.now(), 10);
  EXPECT_EQ(state->dispatches, 2u);  // start + the resume event
}

TEST(EngineResume, NegativeDelayIsClampedAndCounted) {
  auto negative_delay = [] {
    sim::EventLoop loop;
    loop.run_until(100);
    sim::FiberState* state = nullptr;
    bool killed_seen = false;
    bool woke = false;
    sim::Fiber fiber(sleeper(loop, -5, state, killed_seen, woke));
    state = fiber.state().get();
    fiber.start();
    loop.run_until_idle();
    return loop.stats().negative_delay_clamps == 1 && woke &&
           !killed_seen && loop.now() == 100;
  };
#ifdef NDEBUG
  EXPECT_TRUE(negative_delay());
#else
  EXPECT_DEATH((void)negative_delay(), "negative delay");
#endif
}

// --- action type ----------------------------------------------------------

// The whole point of InlineAction: scheduling must work with move-only
// captures (unique_ptr payloads, coroutine handles) without a copyable
// wrapper like std::function forcing shared_ptr workarounds.
static_assert(!std::is_copy_constructible_v<sim::EventLoop::Action>);
static_assert(!std::is_copy_assignable_v<sim::EventLoop::Action>);
static_assert(std::is_nothrow_move_constructible_v<sim::EventLoop::Action>);

TEST(EngineActions, MoveOnlyCaptureSchedulesAndRuns) {
  sim::EventLoop loop;
  auto payload = std::make_unique<int>(42);
  int got = 0;
  loop.schedule_after(0, [payload = std::move(payload), &got] {
    got = *payload;
  });
  const auto inline_before = loop.stats().actions_inline;
  EXPECT_EQ(inline_before, 1u);  // small capture stays in the inline buffer
  loop.run_until_idle();
  EXPECT_EQ(got, 42);
}

TEST(EngineActions, OversizedCaptureSpillsToHeapAndStillRuns) {
  sim::EventLoop loop;
  struct Big {
    char pad[256] = {};
  };
  Big big;
  big.pad[0] = 7;
  int got = 0;
  loop.schedule_after(0, [big, &got] { got = big.pad[0]; });
  EXPECT_EQ(loop.stats().actions_heap, 1u);
  EXPECT_EQ(loop.stats().actions_inline, 0u);
  loop.run_until_idle();
  EXPECT_EQ(got, 7);
}

// --- coroutine-frame recycling --------------------------------------------

sim::Co<int> tiny_child() { co_return 1; }

sim::Co<void> tiny_fiber(int* out) { *out += co_await tiny_child(); }

TEST(EngineFramePool, RepeatedSpawnsRecycleFrames) {
  sim::EventLoop loop;
  int total = 0;
  const auto before = sim::FramePool::instance().stats();
  for (int i = 0; i < 32; ++i) {
    sim::Fiber fiber(tiny_fiber(&total));
    fiber.start();
    loop.run_until_idle();
    EXPECT_TRUE(fiber.done());
  }
  EXPECT_EQ(total, 32);
  const auto after = sim::FramePool::instance().stats();
#if V_FRAME_POOL_ENABLED
  // After the first iteration warms the free lists, every later spawn's
  // frames come back out of the pool: at most one fresh allocation per
  // distinct frame size, everything else recycled.
  EXPECT_GE(after.frames_recycled - before.frames_recycled, 60u);
  EXPECT_LE(after.frames_fresh - before.frames_fresh, 4u);
#else
  // Under ASan the pool disables itself so frame use-after-free stays
  // detectable; every allocation is fresh.
  EXPECT_EQ(after.frames_recycled, before.frames_recycled);
  EXPECT_GE(after.frames_fresh - before.frames_fresh, 64u);
#endif
}

}  // namespace
}  // namespace v::test
