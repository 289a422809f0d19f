// Tests for the observability layer (PR 3): V-trace span parentage across
// a multi-hop forwarding chain, the `[metrics]` context serving registry
// values through the normal CSNH path, the ambient VLOG prefix, and the
// Chrome trace-event export.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "fault/fault.hpp"
#include "harness.hpp"
#include "msg/request_codes.hpp"
#include "naming/protocol.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "servers/file_server.hpp"
#include "servers/metrics_server.hpp"
#include "svc/runtime.hpp"

namespace v {
namespace {

using naming::wire::kOpenRead;
using sim::Co;

/// A chain of file servers joined by "next" links, so that opening
/// next/next/.../payload.dat forwards across `links` server boundaries.
struct ChainFixture {
  explicit ChainFixture(int links) {
    ws = &dom.add_host("ws1");
    for (int i = 0; i <= links; ++i) {
      auto& host = dom.add_host("fs" + std::to_string(i));
      chain.push_back(std::make_unique<servers::FileServer>(
          "fs" + std::to_string(i), servers::DiskModel::kMemory, false));
      pids.push_back(host.spawn("fs" + std::to_string(i),
                                [srv = chain.back().get()](ipc::Process p) {
                                  return srv->run(p);
                                }));
    }
    chain.back()->put_file("payload.dat", "end of the chain");
    for (int i = 0; i < links; ++i) {
      chain[static_cast<std::size_t>(i)]->put_link(
          "next",
          {pids[static_cast<std::size_t>(i) + 1], naming::kDefaultContext});
    }
  }

  ipc::Domain dom;
  ipc::Host* ws = nullptr;
  std::vector<std::unique_ptr<servers::FileServer>> chain;
  std::vector<ipc::ProcessId> pids;
};

TEST(Trace, ForwardingChainSpanParentage) {
  constexpr int kLinks = 3;  // fs0 -> fs1 -> fs2 -> fs3: four hops
  ChainFixture fx(kLinks);
  fx.dom.tracer().enable();
  fx.ws->spawn("client", [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fx.pids[0], naming::kDefaultContext}});
    auto opened = co_await rt.open("next/next/next/payload.dat", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      (void)co_await f.close();
    }
  });
  fx.dom.run();
  ASSERT_EQ(fx.dom.process_failures(), 0u);

  const auto& spans = fx.dom.tracer().spans();
  ASSERT_FALSE(spans.empty());

  // Root: the client's traced Send of the Open request.
  const obs::Span* root = nullptr;
  for (const auto& s : spans) {
    if (s.category == "send" && s.name == "send open") {
      root = &s;
      break;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, 0u);
  EXPECT_GE(root->end, root->start);  // closed by the final Reply

  auto children = [&](std::uint32_t parent, const std::string& category) {
    std::vector<const obs::Span*> out;
    for (const auto& s : spans) {
      if (s.trace_id == root->trace_id && s.parent == parent &&
          s.category == category) {
        out.push_back(&s);
      }
    }
    return out;
  };

  // Walk the hop chain: each Forward re-parents the next hop under the
  // previous one, so the tree must be a single path fs0..fs3.
  std::vector<std::string> hop_names;
  const obs::Span* cursor = root;
  for (;;) {
    auto hops = children(cursor->id, "hop");
    if (hops.empty()) break;
    ASSERT_EQ(hops.size(), 1u) << "forwarding chain must be a single path";
    cursor = hops[0];
    hop_names.push_back(cursor->name);

    // Every hop splits into exactly one queue-wait and one service segment.
    auto queue = children(cursor->id, "queue");
    auto service = children(cursor->id, "service");
    ASSERT_EQ(queue.size(), 1u);
    ASSERT_EQ(service.size(), 1u);
    EXPECT_LE(queue[0]->start, queue[0]->end);
    EXPECT_EQ(queue[0]->end, service[0]->start)
        << "service must begin where queue-wait ends";
    EXPECT_LE(service[0]->end, cursor->end);
  }
  const std::vector<std::string> expected{"hop fs0", "hop fs1", "hop fs2",
                                          "hop fs3"};
  EXPECT_EQ(hop_names, expected);

  // The rendering and the Chrome export must both carry the chain.
  const std::string text = fx.dom.tracer().render_text(root->trace_id);
  for (const auto& name : expected) {
    EXPECT_NE(text.find(name), std::string::npos) << text;
  }
  const std::string json = fx.dom.tracer().chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("hop fs3"), std::string::npos);
}

TEST(Trace, UntracedRunRecordsNothing) {
  ChainFixture fx(1);
  // tracer never enabled
  fx.ws->spawn("client", [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fx.pids[0], naming::kDefaultContext}});
    auto opened = co_await rt.open("next/payload.dat", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      (void)co_await f.close();
    }
  });
  fx.dom.run();
  ASSERT_EQ(fx.dom.process_failures(), 0u);
  EXPECT_TRUE(fx.dom.tracer().spans().empty());
  EXPECT_EQ(fx.dom.tracer().trace_count(), 0u);
}

/// What one forwarding-chain run leaves behind in simulated terms.
struct ChainOutcome {
  sim::SimTime end = 0;
  std::vector<sim::SimDuration> open_latencies;
  ipc::DomainStats stats;
};

/// Open names of every depth along a three-link chain, twice over, and
/// record each open's simulated latency.
ChainOutcome run_chain_opens(ChainFixture& fx) {
  ChainOutcome out;
  fx.ws->spawn("client", [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fx.pids[0], naming::kDefaultContext}});
    for (int round = 0; round < 2; ++round) {
      for (const char* name :
           {"next/next/next/payload.dat", "next/next/next", "next/next",
            "next/next/next/missing.dat"}) {
        const sim::SimTime start = self.now();
        auto opened = co_await rt.open(name, kOpenRead);
        out.open_latencies.push_back(self.now() - start);
        if (opened.ok()) {
          svc::File f = opened.take();
          (void)co_await f.close();
        }
      }
    }
  });
  fx.dom.run();
  EXPECT_EQ(fx.dom.process_failures(), 0u);
  out.end = fx.dom.now();
  out.stats = fx.dom.stats();
  return out;
}

TEST(Trace, FullSamplingLeavesSimulatedResultsUnchanged) {
  // Recording costs host time only: tracing every transaction and keeping
  // the flight recorder's dump sink attached must not move a single
  // simulated number against an idle domain running the same opens.
  ChainFixture idle(3);
  const ChainOutcome base = run_chain_opens(idle);

  ChainFixture traced(3);
  traced.dom.tracer().enable();
  traced.dom.tracer().sampler().set_rate(1.0);
  traced.dom.flight().set_dump_path(::testing::TempDir() +
                                    "full_sampling_flight.json");
  const ChainOutcome seen = run_chain_opens(traced);
  traced.dom.flight().trigger(obs::kDumpOnDemand, traced.dom.now());

  ASSERT_GT(traced.dom.tracer().trace_count(), 0u);
  EXPECT_GT(traced.dom.flight().records(), 0u);
  EXPECT_EQ(seen.end, base.end);
  EXPECT_EQ(seen.open_latencies, base.open_latencies);
  EXPECT_EQ(seen.stats.messages_sent, base.stats.messages_sent);
  EXPECT_EQ(seen.stats.replies_sent, base.stats.replies_sent);
  EXPECT_EQ(seen.stats.forwards, base.stats.forwards);
  EXPECT_EQ(seen.stats.remote_messages, base.stats.remote_messages);
  EXPECT_EQ(seen.stats.moves, base.stats.moves);
  EXPECT_EQ(seen.stats.bytes_moved, base.stats.bytes_moved);
}

TEST(Metrics, ContextReadMatchesRegistry) {
  ChainFixture fx(0);  // one file server, no links
  servers::MetricsServer metrics_srv;
  const auto metrics_pid = fx.ws->spawn(
      "metrics", [&](ipc::Process p) { return metrics_srv.run(p); });

  std::string read_value;
  fx.ws->spawn("client", [&](ipc::Process self) -> Co<void> {
    // Generate some traffic so fs0's counters are nonzero.
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fx.pids[0], naming::kDefaultContext}});
    auto opened = co_await rt.open("payload.dat", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      (void)co_await f.close();
    }
    // Read the counter back through the normal CSNH path.
    rt.set_current({metrics_pid, naming::kDefaultContext});
    auto metric = co_await rt.open("fs0/requests", kOpenRead);
    EXPECT_TRUE(metric.ok());
    if (metric.ok()) {
      svc::File f = metric.take();
      auto bytes = co_await f.read_all();
      EXPECT_TRUE(bytes.ok());
      if (bytes.ok()) {
        read_value.assign(
            reinterpret_cast<const char*>(bytes.value().data()),
            bytes.value().size());
      }
      (void)co_await f.close();
    }
  });
  fx.dom.run();
  ASSERT_EQ(fx.dom.process_failures(), 0u);

  // Same value the registry snapshot reports (nothing touched fs0 after
  // the metric was opened, so the live value did not move).
  const auto registry_value = fx.dom.metrics().value_text("fs0", "requests");
  ASSERT_TRUE(registry_value.has_value());
  EXPECT_EQ(read_value, *registry_value);

  // And it parses as a positive integer (open + close = at least 2).
  const long parsed = std::strtol(read_value.c_str(), nullptr, 10);
  EXPECT_GE(parsed, 2);

  // The JSON snapshot mentions the same scope and counter.
  const std::string json = fx.dom.metrics().to_json();
  EXPECT_NE(json.find("\"fs0\""), std::string::npos);
  EXPECT_NE(json.find("\"requests\""), std::string::npos);
}

TEST(Metrics, LintCountersMirroredIntoRegistry) {
  ChainFixture fx(1);
  fx.ws->spawn("client", [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fx.pids[0], naming::kDefaultContext}});
    auto opened = co_await rt.open("next/payload.dat", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      (void)co_await f.close();
    }
  });
  fx.dom.run();
  ASSERT_EQ(fx.dom.process_failures(), 0u);
  // The protocol-lint accessors keep working AND the registry mirrors them.
  const auto& lint = fx.dom.lint().counters();
  EXPECT_GT(lint.requests_checked, 0u);
  const auto mirrored = fx.dom.metrics().value_text("lint",
                                                    "requests_checked");
  ASSERT_TRUE(mirrored.has_value());
  EXPECT_EQ(std::strtoull(mirrored->c_str(), nullptr, 10),
            lint.requests_checked);
  // DomainStats likewise: forwards counted and mirrored as ipc/forwards.
  const auto forwards = fx.dom.metrics().value_text("ipc", "forwards");
  ASSERT_TRUE(forwards.has_value());
  EXPECT_EQ(std::strtoull(forwards->c_str(), nullptr, 10),
            fx.dom.stats().forwards);
}

TEST(Profile, TopFibersCountDispatches) {
  ChainFixture fx(1);
  // Per-resume host-CPU charging is opt-in (it costs two clock reads per
  // dispatch); enable it so the wall_ns ranking below is meaningful.
  sim::fiber_profiling() = true;
  fx.ws->spawn("client", [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fx.pids[0], naming::kDefaultContext}});
    auto opened = co_await rt.open("next/payload.dat", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      (void)co_await f.close();
    }
  });
  fx.dom.run();
  ASSERT_EQ(fx.dom.process_failures(), 0u);
  const auto top = fx.dom.top_fibers(3);
  ASSERT_FALSE(top.empty());
  EXPECT_LE(top.size(), 3u);
  bool saw_client = false;
  for (const auto& f : top) {
    EXPECT_GT(f.dispatches, 0u);
    if (f.name == "client") saw_client = true;
  }
  // Fibers are ranked by host wall time, descending.
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].wall_ns, top[i].wall_ns);
  }
  (void)saw_client;  // ranking is wall-time dependent; presence not asserted
  sim::fiber_profiling() = false;
}

// --- head-based sampling (PR 8) -------------------------------------------

TEST(Sampling, RateZeroSuppressesWholeChain) {
  ChainFixture fx(3);
  fx.dom.tracer().enable();
  fx.dom.tracer().sampler().set_rate(0.0);
  fx.ws->spawn("client", [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fx.pids[0], naming::kDefaultContext}});
    auto opened = co_await rt.open("next/next/next/payload.dat", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      (void)co_await f.close();
    }
  });
  fx.dom.run();
  ASSERT_EQ(fx.dom.process_failures(), 0u);
  // The head decision said no, so NOTHING downstream records: no root
  // span, no hop/queue/service spans on any of the four servers.
  EXPECT_TRUE(fx.dom.tracer().spans().empty());
  EXPECT_EQ(fx.dom.tracer().trace_count(), 0u);
  EXPECT_EQ(fx.dom.tracer().sampler().sampled(), 0u);
  EXPECT_GT(fx.dom.tracer().sampler().skipped(), 0u);
}

TEST(Sampling, OpcodeOverridePropagatesSampledBitAcrossForwards) {
  constexpr int kLinks = 3;
  ChainFixture fx(kLinks);
  fx.dom.tracer().enable();
  auto& sampler = fx.dom.tracer().sampler();
  sampler.set_rate(0.0);  // drop everything ...
  sampler.set_opcode_rate(msg::kCreateInstance, 1.0);  // ... except opens
  fx.ws->spawn("client", [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fx.pids[0], naming::kDefaultContext}});
    auto opened = co_await rt.open("next/next/next/payload.dat", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      (void)co_await f.close();
    }
  });
  fx.dom.run();
  ASSERT_EQ(fx.dom.process_failures(), 0u);

  // The Open was sampled at its root, and the decision travelled in the
  // envelope: every forwarded hop of that one transaction is present.
  const auto& spans = fx.dom.tracer().spans();
  const obs::Span* root = nullptr;
  for (const auto& s : spans) {
    if (s.category == "send") {
      EXPECT_EQ(s.name, "send open") << "only opens may be sampled";
      root = &s;
    }
  }
  ASSERT_NE(root, nullptr);
  int hops = 0;
  for (const auto& s : spans) {
    // One trace end-to-end: no span belongs to an unsampled transaction.
    EXPECT_EQ(s.trace_id, root->trace_id);
    if (s.category == "hop") ++hops;
  }
  EXPECT_EQ(hops, kLinks + 1);
  // The close (kReleaseInstance) and everything else was skipped.
  EXPECT_GT(sampler.skipped(), 0u);
}

TEST(Sampling, DecisionSequenceIsDeterministic) {
  obs::SamplePolicy a;
  obs::SamplePolicy b;
  a.set_rate(0.25);
  b.set_rate(0.25);
  int kept = 0;
  for (int i = 0; i < 2000; ++i) {
    const bool keep = a.decide(msg::kCreateInstance);
    EXPECT_EQ(keep, b.decide(msg::kCreateInstance)) << "draw " << i;
    kept += keep ? 1 : 0;
  }
  // The private splitmix64 counter is the only entropy source: identical
  // configuration means identical decisions, and the keep fraction tracks
  // the configured rate.
  EXPECT_EQ(a.sampled() + a.skipped(), 2000u);
  EXPECT_NEAR(kept, 500, 120);

  // Rates 0 and 1 are exact, not probabilistic.
  obs::SamplePolicy c;
  c.set_opcode_rate(7, 0.0);
  EXPECT_TRUE(c.decide(9));
  EXPECT_FALSE(c.decide(7));
}

using SpanArgs = std::vector<std::pair<std::string, std::string>>;

TEST(Sampling, RetransmitPromotesAnUnsampledSendOnce) {
  // Head sampling said no, but the Send needed a retransmit: the kernel
  // opens its root span late, once, and the reply closes it.  The server
  // answers after 25 ms, so the 10 ms retransmit fires while it works; the
  // dead link to a spare host is what makes the plan lossy.
  ipc::Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& ws2 = dom.add_host("ws2");
  fault::FaultPlan plan(0x0B5);
  fault::LinkFaults dead_wire;
  dead_wire.drop = 1.0;
  plan.set_link(ws1.id(), dom.add_host("spare").id(), dead_wire);
  dom.install_faults(plan);
  dom.tracer().enable();
  dom.tracer().sampler().set_rate(0.0);
  const ipc::ProcessId server = ws2.spawn("slow", [](ipc::Process self) {
    return test::slow_server(self, 25 * sim::kMillisecond);
  });
  test::run_client(dom, ws1, [server](ipc::Process self) -> Co<void> {
    msg::Message req;
    req.set_code(0x0100);
    EXPECT_EQ((co_await self.send(req, server)).reply_code(), ReplyCode::kOk);
  });
  ASSERT_GT(plan.stats().retransmits, 0u);

  std::vector<const obs::Span*> roots;
  std::vector<const obs::Span*> marks;
  for (const auto& s : dom.tracer().spans()) {
    (s.category == "send" ? roots : marks).push_back(&s);
  }
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0]->name, "send op-0x0100 (promoted)");
  EXPECT_GE(roots[0]->end, roots[0]->start);  // the reply closed it
  EXPECT_EQ(roots[0]->args, (SpanArgs{{"reply_code", "0"}}));
  ASSERT_EQ(marks.size(), plan.stats().retransmits);
  for (const obs::Span* mark : marks) {
    EXPECT_EQ(mark->name, "retransmit");
    EXPECT_EQ(mark->category, "mark");
    EXPECT_EQ(mark->parent, roots[0]->id);
    EXPECT_EQ(mark->end, mark->start);
  }
}

TEST(Sampling, UnsampledFailedSendLeavesOneErrorMark) {
  // A failure the head decision skipped still reaches the timeline: one
  // closed "mark" span, tagged unsampled, covering the failed Send.
  ipc::Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& ws2 = dom.add_host("ws2");
  const ipc::ProcessId gone = ws2.spawn("gone", test::echo_server);
  ws2.crash();
  dom.tracer().enable();
  dom.tracer().sampler().set_rate(0.0);
  test::run_client(dom, ws1, [gone](ipc::Process self) -> Co<void> {
    EXPECT_EQ((co_await self.send(msg::Message{}, gone)).reply_code(),
              ReplyCode::kNoReply);
  });

  ASSERT_EQ(dom.tracer().spans().size(), 1u);
  const obs::Span& mark = dom.tracer().spans()[0];
  EXPECT_EQ(mark.name, "error-reply");
  EXPECT_EQ(mark.category, "mark");
  EXPECT_EQ(mark.parent, 0u);
  EXPECT_GT(mark.end, mark.start);  // spans the Send, start to failure
  EXPECT_EQ(mark.args, (SpanArgs{{"reply_code", "12"}, {"unsampled", "1"}}));
  EXPECT_EQ(dom.tracer().sampler().sampled(), 0u);
}

// --- flight recorder (PR 8) -----------------------------------------------

TEST(Flight, RingWrapKeepsLastEventsAndCountsLosses) {
  obs::FlightRecorder rec;
  rec.set_capacity(5);  // rounds up to the next power of two
  EXPECT_EQ(rec.capacity(), 8u);
  for (int i = 0; i < 20; ++i) {
    rec.record(0, obs::FlightKind::kTimer,
               static_cast<sim::SimTime>(i) * 10, 0, 0, 0,
               static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(rec.records(), 20u);
  EXPECT_EQ(rec.overwritten(), 12u);
  const std::string json = rec.chrome_json();
  // Only the newest 8 records survive the wrap: args 13..20.
  EXPECT_NE(json.find("\"arg\": \"20\""), std::string::npos);
  EXPECT_NE(json.find("\"arg\": \"13\""), std::string::npos);
  EXPECT_EQ(json.find("\"arg\": \"12\""), std::string::npos);
}

TEST(Flight, TriggerRecordsWhyAndWritesDump) {
  obs::FlightRecorder rec;
  rec.attach_host(1, "ws1");
  rec.record(1, obs::FlightKind::kSend, 1000, 42, 43, msg::kCreateInstance,
             7, /*flags=*/1);
  const std::string path = ::testing::TempDir() + "flight_trigger_test.json";
  rec.set_dump_path(path);
  EXPECT_TRUE(rec.trigger(obs::kDumpWatchdog, 2000));
  EXPECT_EQ(rec.triggers(), 1u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  // The dump names its own trigger, carries the host track, the recorded
  // send (with opcode label and the sampled flag), and matches the
  // in-memory rendering byte for byte.
  EXPECT_NE(doc.find("dump watchdog"), std::string::npos);
  EXPECT_NE(doc.find("\"ws1\""), std::string::npos);
  EXPECT_NE(doc.find("send open"), std::string::npos);
  EXPECT_NE(doc.find("\"sampled\": \"1\""), std::string::npos);
  EXPECT_EQ(doc, rec.chrome_json());
  std::remove(path.c_str());
}

TEST(Flight, UnattachedHostFallsBackToDomainRing) {
  obs::FlightRecorder rec;
  rec.record(9, obs::FlightKind::kTimer, 5, 0, 0, 0, 77);
  EXPECT_EQ(rec.rings(), 1u);  // host 9 was never attached
  EXPECT_EQ(rec.records(), 1u);
  EXPECT_NE(rec.chrome_json().find("\"arg\": \"77\""), std::string::npos);
}

// --- log-scale histograms and latency SLOs (PR 8) -------------------------

TEST(Metrics, LogHistogramBoundedRelativeError) {
  obs::LogHistogram h;
  EXPECT_TRUE(h.empty());
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i) * 0.1);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 0.1);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.mean(), 50.05, 1e-6);
  for (const double q : {0.10, 0.50, 0.90, 0.99}) {
    const double exact =
        0.1 * (std::floor(q * 999.0) + 1.0);  // the rank the read targets
    EXPECT_NEAR(h.percentile(q), exact, exact * 0.0651)
        << "q=" << q << " exceeded the 1/16 sub-bucket error bound";
  }
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.1);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(Metrics, LogHistogramClampsPathologicalInputs) {
  obs::LogHistogram h;
  h.record(-3.0);  // negative → zero bucket, not UB
  h.record(0.0);
  h.record(1e30);  // far past the quantized 64-bit range → top bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e30);
  EXPECT_LE(h.percentile(0.5), 1e30);
}

TEST(Metrics, LatencySloSplitsWithinAndOver) {
  ChainFixture fx(1);
  // 1 ns: every open (which crosses a simulated wire) lands OVER.
  fx.dom.set_latency_slo(msg::kCreateInstance, 1);
  // 10 simulated seconds: every close lands WITHIN.
  fx.dom.set_latency_slo(msg::kReleaseInstance, 10 * sim::kSecond);
  fx.ws->spawn("client", [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fx.pids[0], naming::kDefaultContext}});
    for (int i = 0; i < 3; ++i) {
      auto opened = co_await rt.open("next/payload.dat", kOpenRead);
      EXPECT_TRUE(opened.ok());
      if (opened.ok()) {
        svc::File f = opened.take();
        (void)co_await f.close();
      }
    }
  });
  fx.dom.run();
  ASSERT_EQ(fx.dom.process_failures(), 0u);

  const auto* open_slo = fx.dom.slo().find(msg::kCreateInstance);
  ASSERT_NE(open_slo, nullptr);
  EXPECT_EQ(open_slo->within, 0u);
  EXPECT_GE(open_slo->over, 3u);
  const auto* close_slo = fx.dom.slo().find(msg::kReleaseInstance);
  ASSERT_NE(close_slo, nullptr);
  EXPECT_GE(close_slo->within, 3u);
  EXPECT_EQ(close_slo->over, 0u);

  // Exported through the registry as slo/<opcode>.within|.over mirrors.
  const auto over = fx.dom.metrics().value_text("slo", "open.over");
  ASSERT_TRUE(over.has_value());
  EXPECT_EQ(std::strtoull(over->c_str(), nullptr, 10), open_slo->over);
  const auto within = fx.dom.metrics().value_text("slo", "close.within");
  EXPECT_FALSE(within.has_value());  // registry key uses the opcode label
  const auto release_within =
      fx.dom.metrics().value_text("slo", "release-instance.within");
  ASSERT_TRUE(release_within.has_value());
  EXPECT_EQ(std::strtoull(release_within->c_str(), nullptr, 10),
            close_slo->within);
}

// --- event-loop watchdog (PR 8) -------------------------------------------

TEST(Watchdog, TripsOnceOnStuckSendThenDisarms) {
  ipc::Domain dom;
  auto& ws1 = dom.add_host("ws1");
  auto& ws2 = dom.add_host("ws2");
  const auto hole =
      ws2.spawn("black-hole", [](ipc::Process self) -> Co<void> {
        for (;;) (void)co_await self.receive();  // never replies
      });
  dom.enable_watchdog(5 * sim::kMillisecond, 2 * sim::kMillisecond);
  ws1.spawn("stuck", [&, hole](ipc::Process self) -> Co<void> {
    msg::Message m;
    m.set_code(0x0200);
    (void)co_await self.send(m, hole);  // parks forever; the watchdog sees it
  });
  dom.run();  // terminates: the watchdog disarms after its one trip
  EXPECT_EQ(dom.watchdog_trips(), 1u);
  EXPECT_GT(dom.flight().triggers(), 0u);
  const std::string dump = dom.flight().chrome_json();
  EXPECT_NE(dump.find("dump watchdog"), std::string::npos) << dump;
  EXPECT_NE(dump.find("flight-watchdog"), std::string::npos);
}

TEST(Watchdog, QuietRunNeverTrips) {
  ChainFixture fx(1);
  fx.dom.enable_watchdog(5 * sim::kSecond);  // generous: nothing blocks 5 s
  fx.ws->spawn("client", [&](ipc::Process self) -> Co<void> {
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fx.pids[0], naming::kDefaultContext}});
    auto opened = co_await rt.open("next/payload.dat", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      (void)co_await f.close();
    }
  });
  fx.dom.run();
  ASSERT_EQ(fx.dom.process_failures(), 0u);
  EXPECT_EQ(fx.dom.watchdog_trips(), 0u);
}

// --- [metrics] flight-dump leaf (PR 8) ------------------------------------

TEST(Metrics, FlightDumpServedThroughMetricsContext) {
  ChainFixture fx(0);
  servers::MetricsServer metrics_srv;
  const auto metrics_pid = fx.ws->spawn(
      "metrics", [&](ipc::Process p) { return metrics_srv.run(p); });

  std::string doc;
  fx.ws->spawn("client", [&](ipc::Process self) -> Co<void> {
    // Traffic first, so the recorder has something to dump.
    svc::Rt rt(self, {ipc::ProcessId::invalid(),
                      {fx.pids[0], naming::kDefaultContext}});
    auto opened = co_await rt.open("payload.dat", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      (void)co_await f.close();
    }
    // The on-demand post-mortem, read like any file.
    rt.set_current({metrics_pid, naming::kDefaultContext});
    auto dump = co_await rt.open("flight-dump", kOpenRead);
    EXPECT_TRUE(dump.ok());
    if (dump.ok()) {
      svc::File f = dump.take();
      auto bytes = co_await f.read_all();
      EXPECT_TRUE(bytes.ok());
      if (bytes.ok()) {
        doc.assign(reinterpret_cast<const char*>(bytes.value().data()),
                   bytes.value().size());
      }
      (void)co_await f.close();
    }
  });
  fx.dom.run();
  ASSERT_EQ(fx.dom.process_failures(), 0u);

  // A Chrome trace-event document with flight categories, including the
  // on-demand trigger the Open itself fired.
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("flight-send"), std::string::npos);
  EXPECT_NE(doc.find("dump on-demand"), std::string::npos);
  EXPECT_GT(fx.dom.flight().triggers(), 0u);
}

TEST(Log, AmbientPrefixStampsTimeAndPid) {
  std::vector<std::string> lines;
  set_log_sink([&lines](LogLevel, std::string_view, std::string_view line) {
    lines.emplace_back(line);
  });
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kInfo);

  ipc::Domain dom;
  auto& ws = dom.add_host("ws1");
  ws.spawn("chatty", [](ipc::Process self) -> Co<void> {
    co_await self.delay(5 * sim::kMillisecond);
    VLOG(kInfo, "test-component") << "hello from inside the simulation";
  });
  dom.run();

  set_log_sink(nullptr);
  set_log_level(saved);

  ASSERT_EQ(dom.process_failures(), 0u);
  ASSERT_FALSE(lines.empty());
  const std::string& line = lines.back();
  // Prefix carries simulated time and the current pid (ambient context).
  EXPECT_NE(line.find("t="), std::string::npos) << line;
  EXPECT_NE(line.find("pid=0x"), std::string::npos) << line;
  EXPECT_NE(line.find("test-component"), std::string::npos) << line;
  EXPECT_NE(line.find("hello from inside the simulation"), std::string::npos)
      << line;
}

TEST(Log, SinkRestoredToDefaultIsSafe) {
  // After restoring the default sink, logging must not crash (goes to
  // stderr) and a disabled level must not reach any sink.
  int calls = 0;
  set_log_sink([&calls](LogLevel, std::string_view, std::string_view) {
    ++calls;
  });
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kWarn);
  VLOG(kInfo, "quiet") << "below threshold";
  EXPECT_EQ(calls, 0);
  VLOG(kError, "loud") << "above threshold";
  EXPECT_EQ(calls, 1);
  set_log_sink(nullptr);
  set_log_level(saved);
}

}  // namespace
}  // namespace v
