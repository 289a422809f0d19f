// Tests for the cost model itself (CalibrationParams): formula sanity,
// monotonicity, preset fit points, and the invariants every calibration
// must satisfy for the simulation to be meaningful.
#include <gtest/gtest.h>

#include "ipc/calibration.hpp"
#include "sim/time.hpp"

namespace v::ipc {
namespace {

using sim::to_ms;

// A preset and its label. PrintTo prints only the label, so the
// parameterised test names stay the same from one build to the next.
struct NamedCalibration {
  const char* name;
  CalibrationParams params;
  friend void PrintTo(const NamedCalibration& c, std::ostream* os) {
    *os << c.name;
  }
};

class CalibrationInvariants
    : public ::testing::TestWithParam<NamedCalibration> {};

TEST_P(CalibrationInvariants, AllCostsPositive) {
  const auto& p = GetParam().params;
  EXPECT_GT(p.local_hop, 0);
  EXPECT_GT(p.remote_hop, 0);
  EXPECT_GT(p.per_byte_remote, 0);
  EXPECT_GT(p.disk_page, 0);
  EXPECT_GT(p.packet_bytes, 0u);
  EXPECT_GT(p.group_timeout, 0);
}

TEST_P(CalibrationInvariants, RemoteCostsDominateLocal) {
  const auto& p = GetParam().params;
  EXPECT_GT(p.remote_hop, p.local_hop);
  for (const std::size_t bytes : {64u, 512u, 4096u, 65536u}) {
    EXPECT_GT(p.move_from_cost(bytes, false), p.move_from_cost(bytes, true))
        << bytes;
    EXPECT_GT(p.move_to_cost(bytes, false), p.move_to_cost(bytes, true))
        << bytes;
  }
}

TEST_P(CalibrationInvariants, BulkCostsStrictlyMonotoneInSize) {
  const auto& p = GetParam().params;
  for (const bool local : {true, false}) {
    sim::SimDuration previous = -1;
    for (const std::size_t bytes : {0u, 1u, 100u, 512u, 1024u, 8192u,
                                    65536u, 262144u}) {
      const auto cost = p.move_to_cost(bytes, local);
      EXPECT_GT(cost, previous) << bytes << (local ? " local" : " remote");
      previous = cost;
    }
  }
}

TEST_P(CalibrationInvariants, BulkCostsApproximatelyLinear) {
  // Doubling the payload should at most double-ish the marginal cost:
  // cost(2n) - cost(n) is within 3x of cost(n) - cost(0) for large n.
  const auto& p = GetParam().params;
  const auto c0 = p.move_to_cost(0, false);
  const auto c64 = p.move_to_cost(64 * 1024, false);
  const auto c128 = p.move_to_cost(128 * 1024, false);
  const double first = static_cast<double>(c64 - c0);
  const double second = static_cast<double>(c128 - c64);
  EXPECT_NEAR(second / first, 1.0, 0.05);  // linear beyond the setup cost
}

INSTANTIATE_TEST_SUITE_P(
    Presets, CalibrationInvariants,
    ::testing::Values(
        NamedCalibration{"sun-3mbit",
                         CalibrationParams::SunWorkstation3Mbit()},
        NamedCalibration{"slow-net-fast-cpu",
                         CalibrationParams::SlowNetworkFastCpu()}));

// --- fit points of the SUN preset (DESIGN.md calibration table) --------------

TEST(SunPreset, TransactionFitPoints) {
  const auto p = CalibrationParams::SunWorkstation3Mbit();
  EXPECT_DOUBLE_EQ(to_ms(2 * p.local_hop), 0.77);    // local S-R-R
  EXPECT_DOUBLE_EQ(to_ms(2 * p.remote_hop), 2.56);   // remote S-R-R
}

TEST(SunPreset, ProgramLoadFitPoint) {
  const auto p = CalibrationParams::SunWorkstation3Mbit();
  EXPECT_NEAR(to_ms(p.move_to_cost(64 * 1024, false)), 338.0, 12.0);
}

TEST(SunPreset, SmallNameFetchCosts) {
  // The CSname fetch costs that compose the Open matrix (DESIGN.md):
  // a ~16-byte name is cheap locally, ~0.7 ms remotely.
  const auto p = CalibrationParams::SunWorkstation3Mbit();
  EXPECT_LT(to_ms(p.move_from_cost(16, true)), 0.1);
  EXPECT_NEAR(to_ms(p.move_from_cost(16, false)), 0.72, 0.1);
}

TEST(SunPreset, DiskDominatesPageTransfer) {
  // The E3 shape requires the disk (15 ms) to dominate a 512 B transfer.
  const auto p = CalibrationParams::SunWorkstation3Mbit();
  EXPECT_GT(p.disk_page, p.move_to_cost(512, false));
  EXPECT_EQ(p.disk_page_bytes, 512u);
}

TEST(Hop, SelectsByLocality) {
  const auto p = CalibrationParams::SunWorkstation3Mbit();
  EXPECT_EQ(p.hop(true), p.local_hop);
  EXPECT_EQ(p.hop(false), p.remote_hop);
}

}  // namespace
}  // namespace v::ipc
