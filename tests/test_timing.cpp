// Timing reproduction tests for the paper's measured results.
//
//   E1 (section 3.1): 32 B message transaction 0.77 ms local / 2.56 ms remote
//   E2 (section 3.1): 64 KB program image in one bulk MoveTo ~ 338 ms
//   E3 (section 3.1): sequential file read ~17 ms per 512 B page (15 ms disk)
//   E4 (section 6):   Open 1.21/3.70 ms direct, 5.14/7.69 ms via prefix,
//                     with the prefix delta INDEPENDENT of target locality.
//
// The absolute numbers hold for the SunWorkstation3Mbit calibration; the
// structural claims (delta equality, orderings) are asserted for a second,
// deliberately different calibration too.
#include <gtest/gtest.h>

#include "ipc/calibration.hpp"
#include "naming/protocol.hpp"
#include "servers/file_server.hpp"
#include "servers/prefix_server.hpp"
#include "svc/runtime.hpp"

namespace v {
namespace {

using ipc::CalibrationParams;
using naming::wire::kOpenRead;
using sim::Co;
using sim::to_ms;
using test_clock = sim::SimTime;

/// Harness for the Open matrix: a workstation with a LOCAL file server and
/// prefix server, plus a REMOTE file server, both holding "f.dat".
struct OpenMatrix {
  double direct_local_ms = -1;
  double direct_remote_ms = -1;
  double prefix_local_ms = -1;
  double prefix_remote_ms = -1;

  [[nodiscard]] double delta_local() const {
    return prefix_local_ms - direct_local_ms;
  }
  [[nodiscard]] double delta_remote() const {
    return prefix_remote_ms - direct_remote_ms;
  }
};

OpenMatrix measure_open_matrix(CalibrationParams params) {
  ipc::Domain dom(params);
  auto& ws1 = dom.add_host("ws1");
  auto& fs1 = dom.add_host("fs1");

  servers::FileServer local_fs("local", servers::DiskModel::kMemory,
                               /*register_service=*/false);
  servers::FileServer remote_fs("remote");
  local_fs.put_file("f.dat", "local bytes");
  remote_fs.put_file("f.dat", "remote bytes");
  servers::ContextPrefixServer prefixes;

  const auto local_pid =
      ws1.spawn("local-fs", [&](ipc::Process p) { return local_fs.run(p); });
  const auto remote_pid =
      fs1.spawn("remote-fs", [&](ipc::Process p) { return remote_fs.run(p); });
  prefixes.define("l", {.target = {local_pid, naming::kDefaultContext}});
  prefixes.define("r", {.target = {remote_pid, naming::kDefaultContext}});
  ws1.spawn("prefix-server",
            [&](ipc::Process p) { return prefixes.run(p); });

  OpenMatrix matrix;
  ws1.spawn("client", [&](ipc::Process self) -> Co<void> {
    auto rt = co_await svc::Rt::attach(
        self, naming::ContextPair{local_pid, naming::kDefaultContext});
    auto timed_open = [&](std::string_view name) -> Co<double> {
      const auto t0 = self.now();
      auto opened = co_await rt.open(name, kOpenRead);
      const double ms = to_ms(self.now() - t0);
      EXPECT_TRUE(opened.ok());
      if (opened.ok()) {
        svc::File f = opened.take();
        EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
      }
      co_return ms;
    };
    // Direct, current context local.
    rt.set_current({local_pid, naming::kDefaultContext});
    matrix.direct_local_ms = co_await timed_open("f.dat");
    // Direct, current context remote.
    rt.set_current({remote_pid, naming::kDefaultContext});
    matrix.direct_remote_ms = co_await timed_open("f.dat");
    // Via the (always-local) context prefix server.
    matrix.prefix_local_ms = co_await timed_open("[l]f.dat");
    matrix.prefix_remote_ms = co_await timed_open("[r]f.dat");
  });
  dom.run();
  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
  return matrix;
}

TEST(OpenTiming, MatrixMatchesPaperOnSunCalibration) {
  const auto m =
      measure_open_matrix(CalibrationParams::SunWorkstation3Mbit());
  // Paper: 1.21 / 3.70 / 5.14 / 7.69 ms.
  EXPECT_NEAR(m.direct_local_ms, 1.21, 0.10);
  EXPECT_NEAR(m.direct_remote_ms, 3.70, 0.15);
  EXPECT_NEAR(m.prefix_local_ms, 5.14, 0.15);
  EXPECT_NEAR(m.prefix_remote_ms, 7.69, 0.20);
  // Paper: the deltas are 3.94 and 3.99 ms ("identical within the limits of
  // experimental error"), reflecting prefix-server processing time.
  EXPECT_NEAR(m.delta_local(), 3.94, 0.15);
  EXPECT_NEAR(m.delta_remote(), 3.99, 0.15);
}

// Structural claims must hold for ANY calibration.
// A preset and its label. PrintTo prints only the label, so the
// parameterised test names stay the same from one build to the next.
struct NamedCalibration {
  const char* name;
  CalibrationParams params;
  friend void PrintTo(const NamedCalibration& c, std::ostream* os) {
    *os << c.name;
  }
};

class OpenTimingStructure
    : public ::testing::TestWithParam<NamedCalibration> {};

TEST_P(OpenTimingStructure, PrefixDeltaIndependentOfTargetLocality) {
  const auto m = measure_open_matrix(GetParam().params);
  // The prefix server is always local, so its cost contribution is the same
  // whether the final server is local or remote.
  EXPECT_NEAR(m.delta_local(), m.delta_remote(), 0.05)
      << "calibration: " << GetParam().name;
  // Orderings the design implies.
  EXPECT_LT(m.direct_local_ms, m.direct_remote_ms);
  EXPECT_LT(m.direct_local_ms, m.prefix_local_ms);
  EXPECT_LT(m.direct_remote_ms, m.prefix_remote_ms);
}

INSTANTIATE_TEST_SUITE_P(
    Calibrations, OpenTimingStructure,
    ::testing::Values(
        NamedCalibration{"sun-3mbit",
                         CalibrationParams::SunWorkstation3Mbit()},
        NamedCalibration{"slow-net-fast-cpu",
                         CalibrationParams::SlowNetworkFastCpu()}));

TEST(StreamTiming, SequentialPageReadNearSeventeenMs) {
  // E3: with a 15 ms/page disk and one-page read-ahead, the steady-state
  // per-page time lands near the paper's 17.13 ms.
  ipc::Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& fs1 = dom.add_host("fs1");
  servers::FileServer disk_fs("disk", servers::DiskModel::kDisk);
  disk_fs.put_file("seq.dat", std::string(32 * 512, 'd'));  // 32 pages
  const auto fs_pid =
      fs1.spawn("disk-fs", [&](ipc::Process p) { return disk_fs.run(p); });

  double per_page_ms = 0;
  ws1.spawn("client", [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fs_pid, naming::kDefaultContext}});
    auto opened = co_await rt.open("seq.dat", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    svc::File f = opened.take();
    std::vector<std::byte> page(512);
    // Warm up the pipeline on the first pages, then measure steady state.
    for (std::uint32_t b = 0; b < 4; ++b) {
      (void)co_await f.read_block(b, page);
    }
    const auto t0 = self.now();
    constexpr int kPages = 24;
    for (std::uint32_t b = 4; b < 4 + kPages; ++b) {
      auto got = co_await f.read_block(b, page);
      EXPECT_TRUE(got.ok());
    }
    per_page_ms = to_ms(self.now() - t0) / kPages;
    EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
  });
  dom.run();
  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
  // Paper: 17.13 ms/page.  Shape: disk-bound (>=15) plus ~2 ms of
  // non-overlapped protocol time, well under a no-read-ahead design.
  EXPECT_GE(per_page_ms, 15.0);
  EXPECT_NEAR(per_page_ms, 17.13, 1.6);
}

TEST(BulkTiming, ProgramLoadNear338Ms) {
  // E2: 64 KB image pulled with one bulk MoveTo from a remote (memory-
  // buffered) file server.
  ipc::Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& fs1 = dom.add_host("fs1");
  servers::FileServer fs("programs");  // kMemory: image in server buffers
  fs.put_file("bin/prog", std::string(64 * 1024, 'P'));
  const auto fs_pid =
      fs1.spawn("fs", [&](ipc::Process p) { return fs.run(p); });

  double transfer_ms = 0;
  std::size_t got_bytes = 0;
  ws1.spawn("client", [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fs_pid, naming::kDefaultContext}});
    auto opened = co_await rt.open("bin/prog", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    svc::File f = opened.take();
    const auto t0 = self.now();
    auto bytes = co_await f.read_bulk();
    transfer_ms = to_ms(self.now() - t0);
    EXPECT_TRUE(bytes.ok());
    got_bytes = bytes.ok() ? bytes.value().size() : 0;
    EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
  });
  dom.run();
  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
  EXPECT_EQ(got_bytes, 64u * 1024u);
  // Paper: 338 ms.  Our measurement includes the request/reply transaction
  // and instance re-query around the MoveTo, so allow one-sided slack.
  EXPECT_GT(transfer_ms, 320.0);
  EXPECT_LT(transfer_ms, 365.0);
}

}  // namespace
}  // namespace v
