// Satellite S3: queue-cap shedding on EVERY CSNH server.
//
// The kBusy shed policy lives in the CsnhServer receptionist, so it must
// behave identically for all nine concrete servers.  Each instantiation
// floods one server (team: 2 workers, queue cap 2) with six simultaneous
// kMapContextName requests: the receptionist admits two and sheds four with
// an immediate kBusy — and, critically, NOTHING is dropped silently: every
// client gets an answer and the shed counter matches the kBusy replies.
#include <gtest/gtest.h>

#include "msg/csname.hpp"
#include "msg/request_codes.hpp"
#include "server_cases.hpp"

namespace v {
namespace {

using sim::Co;
using test::ServerCase;

class BusyShed : public ::testing::TestWithParam<ServerCase> {};

TEST_P(BusyShed, FloodIsShedWithBusyNeverDroppedSilently) {
  const ServerCase& param = GetParam();
  ipc::Domain dom(ipc::CalibrationParams::SunWorkstation3Mbit());
  auto& ws1 = dom.add_host("ws1");
  auto& srv_host = dom.add_host("srv-host");
  auto server = param.make({.workers = 2, .queue_cap = 2});
  const auto server_pid = srv_host.spawn(
      "srv", [&](ipc::Process p) { return server->run(p); });

  int ok_count = 0;
  int busy_count = 0;
  int other_count = 0;
  for (int c = 0; c < 6; ++c) {
    ws1.spawn("prober", [&](ipc::Process self) -> Co<void> {
      // Empty-name kMapContextName: answered kOk by every conformant CSNH
      // server, read-only (no gate), and needs no segments.
      auto probe = msg::cs::make_request(msg::kMapContextName,
                                         naming::kDefaultContext, 0);
      const auto reply = co_await self.send(probe, server_pid);
      if (reply.reply_code() == ReplyCode::kOk) {
        ++ok_count;
      } else if (reply.reply_code() == ReplyCode::kBusy) {
        ++busy_count;
      } else {
        ++other_count;
      }
    });
  }
  dom.run();

  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
  // Every request is answered — kOk or kBusy, never dropped or mangled.
  EXPECT_EQ(other_count, 0);
  EXPECT_EQ(ok_count + busy_count, 6);
  // Six simultaneous arrivals against cap 2: two admitted, four shed, and
  // the server's own accounting agrees with what the clients saw.
  EXPECT_EQ(ok_count, 2);
  EXPECT_EQ(busy_count, 4);
  EXPECT_EQ(server->shed_count(), 4u);
  EXPECT_EQ(server->queue_depth(), 0u);  // drained by run end
}

INSTANTIATE_TEST_SUITE_P(AllNineServers, BusyShed,
                         ::testing::ValuesIn(test::kAllServers));

}  // namespace
}  // namespace v
