// V-blackbox walkthrough: a Send crosses a dead wire, the retry budget
// runs out, and the kernel's kNoReply defeat automatically fires a flight
// recorder dump — the last N events on every host, rendered as Chrome
// trace-event JSON for Perfetto (ui.perfetto.dev) or chrome://tracing.
// No tracing has to be enabled and nothing is configured in advance
// beyond the dump path: the recorder is always on.
//
// Usage: flight_dump [flight.json]
#include <cstdio>
#include <string>

#include "fault/fault.hpp"
#include "ipc/kernel.hpp"
#include "sim/time.hpp"

int main(int argc, char** argv) {
  using namespace v;
  const std::string out_path = argc > 1 ? argv[1] : "flight.json";

  ipc::Domain dom;
  dom.flight().set_dump_path(out_path);

  auto& ws1 = dom.add_host("ws1");
  auto& fs1 = dom.add_host("fs1");
  const ipc::ProcessId server =
      fs1.spawn("echo", [](ipc::Process self) -> sim::Co<void> {
        for (;;) {
          auto env = co_await self.receive();
          self.reply(env, msg::make_reply(ReplyCode::kOk));
        }
      });

  // The adversary: every packet from ws1 to fs1 is lost.  A quick retry
  // policy keeps the demo short — 3 retransmissions, then kNoReply.
  fault::FaultPlan plan(0xB1ACB0ULL);
  fault::LinkFaults dead_wire;
  dead_wire.drop = 1.0;
  plan.set_link(ws1.id(), fs1.id(), dead_wire);
  fault::RetryPolicy quick;
  quick.initial_timeout = 4 * sim::kMillisecond;
  quick.backoff = 2.0;
  quick.max_timeout = 16 * sim::kMillisecond;
  quick.budget = 3;
  plan.set_retry(quick);
  dom.install_faults(plan);

  bool gave_up = false;
  ws1.spawn("client", [&, server](ipc::Process self) -> sim::Co<void> {
    msg::Message probe;
    probe.set_code(0x0200);
    const auto reply = co_await self.send(probe, server);
    gave_up = reply.reply_code() == ReplyCode::kNoReply;
    std::printf("send answered with %s after %.1f simulated ms\n",
                std::string(to_string(reply.reply_code())).c_str(),
                sim::to_ms(self.now()));
  });

  dom.run();
  if (dom.process_failures() != 0) {
    std::fprintf(stderr, "FAILED: %s\n", dom.first_failure().c_str());
    return 1;
  }

  if (!gave_up) {
    std::fprintf(stderr, "FAILED: the dead wire did not defeat the send\n");
    return 1;
  }
  std::printf(
      "flight recorder: %llu records across %zu rings, %llu trigger(s)\n",
      static_cast<unsigned long long>(dom.flight().records()),
      dom.flight().rings(),
      static_cast<unsigned long long>(dom.flight().triggers()));
  std::printf("post-mortem dump written to %s — load it in Perfetto\n",
              out_path.c_str());
  return 0;
}
