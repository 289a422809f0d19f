// Runtime-library (svc::Rt) behaviours exercised end-to-end through every
// routing mode: current context, '[prefix]' names, and cross-server links —
// for each of the mutating and querying stubs.
#include <gtest/gtest.h>

#include "naming/protocol.hpp"
#include "v_fixture.hpp"

namespace v {
namespace {

using naming::DescriptorType;
using naming::wire::kOpenCreate;
using naming::wire::kOpenRead;
using naming::wire::kOpenWrite;
using sim::Co;
using test::VFixture;

TEST(Rt, MutationsThroughPrefixedNames) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    EXPECT_EQ(co_await rt.create("[home]notes.txt"), ReplyCode::kOk);
    EXPECT_EQ(co_await rt.rename("[home]notes.txt", "journal.txt"),
              ReplyCode::kOk);
    auto desc = co_await rt.query("[home]journal.txt");
    EXPECT_TRUE(desc.ok());
    if (desc.ok()) {
      auto changed = desc.take();
      changed.owner = "mann";
      EXPECT_EQ(co_await rt.modify("[home]journal.txt", changed),
                ReplyCode::kOk);
    }
    EXPECT_EQ(co_await rt.remove("[home]journal.txt"), ReplyCode::kOk);
    EXPECT_EQ((co_await rt.query("[home]journal.txt")).code(),
              ReplyCode::kNotFound);
    // Nothing leaked into the actual store.
    EXPECT_EQ(fx.alpha.read_file("usr/mann/journal.txt").code(),
              ReplyCode::kNotFound);
  });
}

TEST(Rt, MutationsAcrossCrossServerLinks) {
  // Defining operations THROUGH a link land on the remote server.
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    EXPECT_EQ(co_await rt.create("usr/mann/proj/fresh.txt"), ReplyCode::kOk);
    EXPECT_EQ(fx.beta.read_file("pub/fresh.txt").value(), "");
    EXPECT_EQ(co_await rt.make_context("usr/mann/proj/subdir"),
              ReplyCode::kOk);
    EXPECT_EQ(co_await rt.rename("usr/mann/proj/fresh.txt", "stale.txt"),
              ReplyCode::kOk);
    EXPECT_EQ(co_await rt.remove("usr/mann/proj/stale.txt"), ReplyCode::kOk);
    EXPECT_EQ(co_await rt.remove("usr/mann/proj/subdir"), ReplyCode::kOk);
  });
}

TEST(Rt, ChangeContextThroughPrefixAndBack) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    const auto original = rt.current();
    EXPECT_EQ(co_await rt.change_context("[beta]pub"), ReplyCode::kOk);
    EXPECT_EQ(rt.current().server, fx.beta_pid);
    auto opened = co_await rt.open("readme", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    // A failed change leaves the current context untouched.
    EXPECT_EQ(co_await rt.change_context("no/such/place"),
              ReplyCode::kNotFound);
    EXPECT_EQ(rt.current().server, fx.beta_pid);
    rt.set_current(original);
    EXPECT_EQ(rt.current(), original);
  });
}

TEST(Rt, MapContextOfBarePrefix) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    auto mapped = co_await rt.map_context("[home]");
    EXPECT_TRUE(mapped.ok());
    if (mapped.ok()) {
      EXPECT_EQ(mapped.value().server, fx.alpha_pid);
      EXPECT_EQ(mapped.value().context, fx.alpha.context_of("usr/mann"));
    }
    // "[]" names the prefix server's own table context.
    auto self_map = co_await rt.map_context("[]");
    EXPECT_TRUE(self_map.ok());
    if (self_map.ok()) {
      EXPECT_EQ(self_map.value().server, fx.prefix_pid);
    }
  });
}

TEST(Rt, OpenDetailedReportsFinalDirectoryContext) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    auto opened =
        co_await rt.open_detailed("usr/mann/naming.mss", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    auto detail = opened.take();
    EXPECT_EQ(detail.directory.server, fx.alpha_pid);
    EXPECT_EQ(detail.directory.context, fx.alpha.context_of("usr/mann"));
    EXPECT_EQ(co_await detail.file.close(), ReplyCode::kOk);
    // Across a link, the directory context belongs to the FINAL server.
    auto linked =
        co_await rt.open_detailed("usr/mann/proj/readme", kOpenRead);
    EXPECT_TRUE(linked.ok());
    if (!linked.ok()) co_return;
    auto far = linked.take();
    EXPECT_EQ(far.directory.server, fx.beta_pid);
    EXPECT_EQ(far.directory.context, fx.beta.context_of("pub"));
    EXPECT_EQ(co_await far.file.close(), ReplyCode::kOk);
  });
}

TEST(Rt, OpenAtGenerationZeroExpectsNothing) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process self, svc::Rt rt) -> Co<void> {
    const naming::ContextPair mann{fx.alpha_pid,
                                   fx.alpha.context_of("usr/mann")};
    const std::uint32_t live = fx.alpha.generation(mann.context);
    EXPECT_NE(live, 0u);  // generations are drawn from 1 on
    // "usr/mann/" is 9 bytes: the server interprets only the leaf.
    const std::string_view name = "usr/mann/naming.mss";
    const msg::Message reply =
        co_await rt.open_at(mann, name, 9, kOpenRead, /*expected=*/0);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kOk);
    if (reply.reply_code() == ReplyCode::kOk) {
      svc::File f = svc::Rt::decode_open_reply(self, reply).file;
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    // A nonzero expectation is still checked.
    const msg::Message stale =
        co_await rt.open_at(mann, name, 9, kOpenRead, live + 1);
    EXPECT_EQ(stale.reply_code(), ReplyCode::kStaleContext);
  });
}

TEST(Rt, QueryDescriptorOfPrefixedContext) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    // Querying a bare prefix forwards and describes the TARGET context.
    auto desc = co_await rt.query("[home]");
    EXPECT_TRUE(desc.ok());
    if (desc.ok()) {
      EXPECT_EQ(desc.value().type, DescriptorType::kContext);
      EXPECT_EQ(desc.value().server_pid, fx.alpha_pid.raw);
      EXPECT_EQ(desc.value().context_id, fx.alpha.context_of("usr/mann"));
    }
  });
}

TEST(Rt, InverseNameOfOversizedContextNameStillWorks) {
  VFixture fx;
  // Deep directory chain: the inverse name is long but under the limit.
  std::string deep = "usr/mann";
  for (int i = 0; i < 20; ++i) deep += "/d" + std::to_string(i);
  fx.alpha.mkdirs(deep);
  fx.run_client([&fx, deep](ipc::Process, svc::Rt rt) -> Co<void> {
    auto name = co_await rt.context_name(
        {fx.alpha_pid, fx.alpha.context_of(deep)});
    EXPECT_TRUE(name.ok());
    if (name.ok()) {
      EXPECT_EQ(name.value(), "/" + deep);
    }
  });
}

TEST(Rt, ListContextOnPlainFileFails) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    // Directory-mode open of a FILE cannot succeed.
    auto records = co_await rt.list_context("usr/mann/naming.mss");
    EXPECT_FALSE(records.ok());
    EXPECT_EQ(records.code(), ReplyCode::kNotFound);
  });
}

TEST(Rt, SendCsnameWithoutValidCurrentContext) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    rt.set_current({ipc::ProcessId::invalid(), naming::kDefaultContext});
    auto opened = co_await rt.open("anything", kOpenRead);
    EXPECT_EQ(opened.code(), ReplyCode::kInvalidContext);
    // Prefixed names still route (the prefix server is independent of the
    // current context).
    auto prefixed = co_await rt.open("[home]naming.mss", kOpenRead);
    EXPECT_TRUE(prefixed.ok());
    if (prefixed.ok()) {
      svc::File f = prefixed.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
  });
}

}  // namespace
}  // namespace v
