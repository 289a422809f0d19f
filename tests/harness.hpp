// Shared helpers for simulation tests.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <utility>

#include "ipc/kernel.hpp"
#include "sim/task.hpp"

namespace v::test {

/// Spawn `body` as a client process on `host`, run the simulation to idle,
/// and fail the test if any process died with an unexpected exception.
inline void run_client(ipc::Domain& dom, ipc::Host& host,
                       std::function<sim::Co<void>(ipc::Process)> body) {
  host.spawn("client", std::move(body));
  dom.run();
  EXPECT_EQ(dom.process_failures(), 0u) << dom.first_failure();
}

/// A server that replies kOk to everything, echoing the request's variant
/// bytes back (fields 2..31 preserved, code replaced by the reply code).
inline sim::Co<void> echo_server(ipc::Process self) {
  for (;;) {
    auto env = co_await self.receive();
    msg::Message reply = env.request;
    reply.set_reply_code(ReplyCode::kOk);
    self.reply(env, reply);
  }
}

/// A server that answers every request kOk after `work` of simulated time.
inline sim::Co<void> slow_server(ipc::Process self, sim::SimDuration work) {
  for (;;) {
    auto env = co_await self.receive();
    co_await self.delay(work);
    self.reply(env, msg::make_reply(ReplyCode::kOk));
  }
}

}  // namespace v::test
