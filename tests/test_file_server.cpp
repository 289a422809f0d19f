// End-to-end tests of the FileServer through the name-handling protocol and
// the run-time stubs: hierarchical contexts, CRUD, descriptors, context
// directories, cross-server forwarding, and well-known contexts.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "naming/protocol.hpp"
#include "v_fixture.hpp"

namespace v {
namespace {

using naming::DescriptorType;
using naming::ObjectDescriptor;
using naming::wire::kOpenCreate;
using naming::wire::kOpenRead;
using naming::wire::kOpenWrite;
using sim::Co;
using test::VFixture;

std::string to_str(const std::vector<std::byte>& bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

TEST(FileServer, OpenAndReadExistingFile) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    auto opened = co_await rt.open("usr/mann/naming.mss", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    svc::File f = opened.take();
    EXPECT_GT(f.size(), 0u);
    auto bytes = co_await f.read_all();
    EXPECT_TRUE(bytes.ok());
    EXPECT_EQ(to_str(bytes.value()), "Distributed name interpretation.");
    EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
  });
}

TEST(FileServer, OpenMissingFileFails) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    auto opened = co_await rt.open("usr/mann/nonexistent", kOpenRead);
    EXPECT_FALSE(opened.ok());
    EXPECT_EQ(opened.code(), ReplyCode::kNotFound);
  });
}

TEST(FileServer, PathThroughFileIsNotAContext) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    auto opened = co_await rt.open("usr/mann/naming.mss/deeper", kOpenRead);
    EXPECT_FALSE(opened.ok());
    EXPECT_EQ(opened.code(), ReplyCode::kNotAContext);
  });
}

TEST(FileServer, PathThroughMissingContextIsNotFound) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    auto opened = co_await rt.open("usr/ghost/deeper", kOpenRead);
    EXPECT_FALSE(opened.ok());
    EXPECT_EQ(opened.code(), ReplyCode::kNotFound);
  });
}

TEST(FileServer, CreateWriteReadBack) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    auto opened =
        co_await rt.open("tmp/new.txt", kOpenWrite | kOpenCreate);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    svc::File f = opened.take();
    const std::string text = "hello, V";
    EXPECT_EQ(co_await f.write_all(
                  std::as_bytes(std::span(text.data(), text.size()))),
              ReplyCode::kOk);
    EXPECT_EQ(co_await f.close(), ReplyCode::kOk);

    auto reopened = co_await rt.open("tmp/new.txt", kOpenRead);
    EXPECT_TRUE(reopened.ok());
    if (!reopened.ok()) co_return;
    svc::File g = reopened.take();
    auto bytes = co_await g.read_all();
    EXPECT_TRUE(bytes.ok());
    EXPECT_EQ(to_str(bytes.value()), "hello, V");
    EXPECT_EQ(co_await g.close(), ReplyCode::kOk);
  });
  EXPECT_EQ(fx.alpha.read_file("tmp/new.txt").value(), "hello, V");
}

TEST(FileServer, MultiBlockFileRoundTrips) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    std::string big(1700, 'x');  // 3 blocks + remainder
    for (std::size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<char>('a' + i % 26);
    }
    auto opened = co_await rt.open("tmp/big.bin",
                                   kOpenRead | kOpenWrite | kOpenCreate);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    svc::File f = opened.take();
    EXPECT_EQ(co_await f.write_all(
                  std::as_bytes(std::span(big.data(), big.size()))),
              ReplyCode::kOk);
    EXPECT_EQ(co_await f.refresh(), ReplyCode::kOk);
    EXPECT_EQ(f.size(), big.size());
    auto bytes = co_await f.read_all();
    EXPECT_TRUE(bytes.ok());
    if (bytes.ok()) {
      EXPECT_EQ(to_str(bytes.value()), big);
    }
    // Bulk path returns the identical content.
    auto bulk = co_await f.read_bulk();
    EXPECT_TRUE(bulk.ok());
    if (bulk.ok()) {
      EXPECT_EQ(to_str(bulk.value()), big);
    }
    EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
  });
}

TEST(FileServer, RemoveDeletesNameAndObjectTogether) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    EXPECT_EQ(co_await rt.remove("usr/mann/paper.mss"), ReplyCode::kOk);
    auto opened = co_await rt.open("usr/mann/paper.mss", kOpenRead);
    EXPECT_EQ(opened.code(), ReplyCode::kNotFound);
    // Idempotence check: removing again reports not-found.
    EXPECT_EQ(co_await rt.remove("usr/mann/paper.mss"),
              ReplyCode::kNotFound);
  });
}

TEST(FileServer, RemoveNonEmptyDirectoryRefused) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    EXPECT_EQ(co_await rt.remove("usr/mann"), ReplyCode::kBadState);
    EXPECT_EQ(co_await rt.make_context("tmp/emptydir"), ReplyCode::kOk);
    EXPECT_EQ(co_await rt.remove("tmp/emptydir"), ReplyCode::kOk);
  });
}

TEST(FileServer, RenameWithinContext) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    EXPECT_EQ(co_await rt.rename("usr/mann/naming.mss", "naming-v2.mss"),
              ReplyCode::kOk);
    EXPECT_EQ((co_await rt.open("usr/mann/naming.mss", kOpenRead)).code(),
              ReplyCode::kNotFound);
    auto opened = co_await rt.open("usr/mann/naming-v2.mss", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    // Renaming onto an existing name collides.
    EXPECT_EQ(co_await rt.rename("usr/mann/naming-v2.mss", "paper.mss"),
              ReplyCode::kNameExists);
  });
}

TEST(FileServer, MapContextNameReturnsServerAndContext) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    auto mapped = co_await rt.map_context("usr/mann");
    EXPECT_TRUE(mapped.ok());
    EXPECT_EQ(mapped.value().server, fx.alpha_pid);
    EXPECT_EQ(mapped.value().context, fx.alpha.context_of("usr/mann"));
    // A file does not name a context.
    auto not_ctx = co_await rt.map_context("usr/mann/naming.mss");
    EXPECT_EQ(not_ctx.code(), ReplyCode::kNotAContext);
  });
}

TEST(FileServer, ChangeContextMakesNamesRelative) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    EXPECT_EQ(co_await rt.change_context("usr/mann"), ReplyCode::kOk);
    auto opened = co_await rt.open("naming.mss", kOpenRead);  // now relative
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    // ".." walks up.
    auto up = co_await rt.map_context("..");
    EXPECT_TRUE(up.ok());
    rt.set_current(up.value());
    auto opened2 = co_await rt.open("mann/paper.mss", kOpenRead);
    EXPECT_TRUE(opened2.ok());
    if (opened2.ok()) {
      svc::File f = opened2.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
  });
}

TEST(FileServer, QueryDescriptorFields) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    auto desc = co_await rt.query("usr/mann/naming.mss");
    EXPECT_TRUE(desc.ok());
    if (!desc.ok()) co_return;
    EXPECT_EQ(desc.value().type, DescriptorType::kFile);
    EXPECT_EQ(desc.value().name, "naming.mss");
    EXPECT_EQ(desc.value().size,
              std::string("Distributed name interpretation.").size());
    // Querying a directory yields a context descriptor.
    auto dir = co_await rt.query("usr/mann");
    EXPECT_TRUE(dir.ok());
    EXPECT_EQ(dir.value().type, DescriptorType::kContext);
  });
}

TEST(FileServer, ModifyDescriptorChangesOnlyModifiableFields) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    auto desc = co_await rt.query("usr/mann/naming.mss");
    EXPECT_TRUE(desc.ok());
    if (!desc.ok()) co_return;
    ObjectDescriptor changed = desc.value();
    changed.flags = naming::kReadable;  // drop writeability
    changed.owner = "cheriton";
    changed.size = 9999;  // server must ignore this
    EXPECT_EQ(co_await rt.modify("usr/mann/naming.mss", changed),
              ReplyCode::kOk);
    auto after = co_await rt.query("usr/mann/naming.mss");
    EXPECT_TRUE(after.ok());
    if (!after.ok()) co_return;
    EXPECT_EQ(after.value().flags, naming::kReadable);
    EXPECT_EQ(after.value().owner, "cheriton");
    EXPECT_EQ(after.value().size,
              std::string("Distributed name interpretation.").size());
    // Write-open now fails: descriptor modification has real effect.
    auto opened = co_await rt.open("usr/mann/naming.mss", kOpenWrite);
    EXPECT_EQ(opened.code(), ReplyCode::kNoPermission);
  });
}

TEST(FileServer, ContextDirectoryListsAllObjects) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    auto records = co_await rt.list_context("usr/mann");
    EXPECT_TRUE(records.ok());
    if (!records.ok()) co_return;
    EXPECT_EQ(records.value().size(), 3u);  // naming.mss, paper.mss, proj
    bool saw_link = false;
    for (const auto& rec : records.value()) {
      if (rec.name == "proj") {
        saw_link = true;
        EXPECT_EQ(rec.type, DescriptorType::kContext);
      }
    }
    EXPECT_TRUE(saw_link);
  });
}

TEST(FileServer, ContextDirectoryMatchesIndividualQueries) {
  // Section 5.6: records returned by reading the directory are identical to
  // those a per-object query returns.
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    auto records = co_await rt.list_context("usr/mann");
    EXPECT_TRUE(records.ok());
    if (!records.ok()) co_return;
    for (const auto& rec : records.value()) {
      const std::string full_name = "usr/mann/" + rec.name;
      auto one = co_await rt.query(full_name);
      EXPECT_TRUE(one.ok());
      if (!one.ok()) continue;
      if (rec.server_pid != 0 && rec.name == "proj") {
        // Cross-server link: the query FORWARDS to the target server, which
        // describes the target context under its own name — dir records and
        // forwarded queries legitimately differ here (section 6's lossy
        // reverse-mapping territory).  They must agree on the context pair.
        EXPECT_EQ(one.value().type, naming::DescriptorType::kContext);
        EXPECT_EQ(one.value().server_pid, rec.server_pid);
        EXPECT_EQ(one.value().context_id, rec.context_id);
      } else {
        EXPECT_EQ(one.value(), rec);
      }
    }
  });
}

TEST(FileServer, WritingContextDirectoryModifiesObjects) {
  // Section 5.6: "Writing a description record has the same semantics as
  // invoking the modification operation on the corresponding object."
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    auto opened = co_await rt.open(
        "usr/mann", kOpenRead | kOpenWrite | naming::wire::kOpenDirectory);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    svc::File dir = opened.take();
    auto bytes = co_await dir.read_all();
    EXPECT_TRUE(bytes.ok());
    if (!bytes.ok()) co_return;
    auto data = bytes.take();
    // Rewrite every record's owner.
    for (std::size_t off = 0;
         off + ObjectDescriptor::kWireSize <= data.size();
         off += ObjectDescriptor::kWireSize) {
      auto rec = ObjectDescriptor::decode(
          std::span(data).subspan(off, ObjectDescriptor::kWireSize));
      EXPECT_TRUE(rec.ok());
      if (!rec.ok()) continue;
      auto d = rec.take();
      d.owner = "archivist";
      d.encode(std::span(data).subspan(off, ObjectDescriptor::kWireSize));
    }
    EXPECT_EQ(co_await dir.write_all(data), ReplyCode::kOk);
    EXPECT_EQ(co_await dir.close(), ReplyCode::kOk);
    auto after = co_await rt.query("usr/mann/naming.mss");
    EXPECT_TRUE(after.ok());
    if (after.ok()) {
      EXPECT_EQ(after.value().owner, "archivist");
    }
  });
}

TEST(FileServer, WellKnownContextsResolve) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    // Address the home context directly via the well-known id.
    rt.set_current({fx.alpha_pid, naming::kHomeContext});
    auto opened = co_await rt.open("naming.mss", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
    rt.set_current({fx.alpha_pid, naming::kProgramsContext});
    auto prog = co_await rt.open("edit", kOpenRead);
    EXPECT_TRUE(prog.ok());
    if (prog.ok()) {
      svc::File f = prog.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
  });
}

TEST(FileServer, CrossServerLinkForwardsTransparently) {
  // The name walks alpha:/usr/mann/proj -> beta:/pub without the client
  // knowing two servers were involved.
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    auto opened = co_await rt.open("usr/mann/proj/readme", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    svc::File f = opened.take();
    EXPECT_EQ(f.server(), fx.beta_pid);  // instance lives on beta
    auto bytes = co_await f.read_all();
    EXPECT_TRUE(bytes.ok());
    EXPECT_EQ(to_str(bytes.value()), "public files live here");
    EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    // Deeper multi-hop resolution across the link also works.
    auto deep = co_await rt.open("usr/mann/proj/data/points.dat", kOpenRead);
    EXPECT_TRUE(deep.ok());
    if (deep.ok()) {
      svc::File g = deep.take();
      EXPECT_EQ(co_await g.close(), ReplyCode::kOk);
    }
  });
}

TEST(FileServer, LinkCreationThroughProtocol) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    EXPECT_EQ(co_await rt.link("tmp/pub-link",
                               {fx.beta_pid, fx.beta.context_of("pub")}),
              ReplyCode::kOk);
    auto opened = co_await rt.open("tmp/pub-link/readme", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (opened.ok()) {
      svc::File f = opened.take();
      EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    }
  });
}

TEST(FileServer, GetContextNameInverseMapping) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    auto name = co_await rt.context_name(
        {fx.alpha_pid, fx.alpha.context_of("usr/mann")});
    EXPECT_TRUE(name.ok());
    EXPECT_EQ(name.value(), "/usr/mann");
    // An invalid context has no inverse.
    auto bogus = co_await rt.context_name({fx.alpha_pid, 999999});
    EXPECT_EQ(bogus.code(), ReplyCode::kNoInverse);
  });
}

TEST(FileServer, GetFileNameFromOpenInstance) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    auto opened = co_await rt.open("usr/mann/naming.mss", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    svc::File f = opened.take();
    auto name = co_await rt.file_name(f.server(), f.instance());
    EXPECT_TRUE(name.ok());
    EXPECT_EQ(name.value(), "/usr/mann/naming.mss");
    EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
    // After close the instance has no name (temporary object released).
    auto gone = co_await rt.file_name(f.server(), f.instance());
    EXPECT_EQ(gone.code(), ReplyCode::kNoInverse);
  });
}

TEST(FileServer, ReverseMappingLosesForwardingHistory) {
  // Section 6: a name resolved through a cross-server link reverse-maps to
  // the FINAL server's local path, not the path the client used — the
  // inverse is genuinely lossy.
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    auto opened = co_await rt.open("usr/mann/proj/readme", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    svc::File f = opened.take();
    auto name = co_await rt.file_name(f.server(), f.instance());
    EXPECT_TRUE(name.ok());
    EXPECT_EQ(name.value(), "/pub/readme");  // beta's view, not the client's
    EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
  });
}

TEST(FileServer, InvalidContextIdRejected) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    rt.set_current({fx.alpha_pid, 123456});
    auto opened = co_await rt.open("anything", kOpenRead);
    EXPECT_EQ(opened.code(), ReplyCode::kInvalidContext);
  });
}

// --- the i-node table: ids are indexes, removed ids stay dead -------------

TEST(FileServer, ContextIdPastInodeTableIsInvalidContext) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    // Far past every i-number ever handed out: a miss, never an
    // out-of-range access.  0xFFFFFFF0 also sits in the well-known range
    // with nothing mapped there; 0x80000000 reaches the table untranslated.
    for (const naming::ContextId ctx : {0xFFFFFFF0u, 0x80000000u}) {
      rt.set_current({fx.alpha_pid, ctx});
      auto opened = co_await rt.open("anything", kOpenRead);
      EXPECT_EQ(opened.code(), ReplyCode::kInvalidContext) << ctx;
      auto desc = co_await rt.query("anything");
      EXPECT_EQ(desc.code(), ReplyCode::kInvalidContext) << ctx;
      auto name = co_await rt.context_name({fx.alpha_pid, ctx});
      EXPECT_EQ(name.code(), ReplyCode::kNoInverse) << ctx;
    }
  });
}

TEST(FileServer, RemovedDirectoryIdIsInvalidContext) {
  VFixture fx;
  naming::ContextId gone = 0;
  fx.run_client([&fx, &gone](ipc::Process, svc::Rt rt) -> Co<void> {
    EXPECT_EQ(co_await rt.make_context("tmp/gone"), ReplyCode::kOk);
    gone = fx.alpha.context_of("tmp/gone");
    EXPECT_EQ(co_await rt.remove("tmp/gone"), ReplyCode::kOk);
    rt.set_current({fx.alpha_pid, gone});
    auto opened = co_await rt.open("x", kOpenRead | kOpenWrite | kOpenCreate);
    EXPECT_EQ(opened.code(), ReplyCode::kInvalidContext);
    EXPECT_EQ(co_await rt.create("x", 0), ReplyCode::kInvalidContext);
    auto name = co_await rt.context_name({fx.alpha_pid, gone});
    EXPECT_EQ(name.code(), ReplyCode::kNoInverse);
  });
  EXPECT_NE(gone, 0u);
}

TEST(FileServer, ReadOnInstanceOfRemovedFileIsBadState) {
  VFixture fx;
  fx.run_client([](ipc::Process, svc::Rt rt) -> Co<void> {
    auto opened = co_await rt.open("usr/mann/paper.mss", kOpenRead);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) co_return;
    svc::File f = opened.take();
    std::array<std::byte, 512> block{};
    auto before = co_await f.read_block(0, block);
    EXPECT_TRUE(before.ok());
    // The name and the object die together; the open instance outlives
    // both but can no longer reach the data.
    EXPECT_EQ(co_await rt.remove("usr/mann/paper.mss"), ReplyCode::kOk);
    auto after = co_await f.read_block(0, block);
    EXPECT_EQ(after.code(), ReplyCode::kBadState);
    auto name = co_await rt.file_name(f.server(), f.instance());
    EXPECT_EQ(name.code(), ReplyCode::kNoInverse);
    EXPECT_EQ(co_await f.close(), ReplyCode::kOk);
  });
}

TEST(FileServer, RecreatedNameGetsFreshInodeNumber) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process, svc::Rt rt) -> Co<void> {
    // A file: the descriptor's object id is its i-number.
    EXPECT_EQ(co_await rt.create("tmp/again", 0), ReplyCode::kOk);
    auto first = co_await rt.query("tmp/again");
    EXPECT_EQ(co_await rt.remove("tmp/again"), ReplyCode::kOk);
    EXPECT_EQ(co_await rt.create("tmp/again", 0), ReplyCode::kOk);
    auto second = co_await rt.query("tmp/again");
    EXPECT_TRUE(first.ok() && second.ok());
    if (!first.ok() || !second.ok()) co_return;
    EXPECT_GT(second.value().object_id, first.value().object_id);

    // A directory: a binding cached against the old context id must not
    // reach the new directory of the same name.
    EXPECT_EQ(co_await rt.make_context("tmp/dir"), ReplyCode::kOk);
    const naming::ContextId old_dir = fx.alpha.context_of("tmp/dir");
    EXPECT_EQ(co_await rt.remove("tmp/dir"), ReplyCode::kOk);
    EXPECT_EQ(co_await rt.make_context("tmp/dir"), ReplyCode::kOk);
    EXPECT_EQ(co_await rt.create("tmp/dir/leaf", 0), ReplyCode::kOk);
    EXPECT_NE(fx.alpha.context_of("tmp/dir"), old_dir);
    rt.set_current({fx.alpha_pid, old_dir});
    auto stale = co_await rt.query("leaf");
    EXPECT_EQ(stale.code(), ReplyCode::kInvalidContext);
  });
}

TEST(FileServer, IllegalOperationRejectedUniformly) {
  VFixture fx;
  fx.run_client([&fx](ipc::Process self, svc::Rt) -> Co<void> {
    // A CSname request with an op code alpha does not implement still gets
    // name resolution, then a clean kIllegalRequest.
    msg::Message request = msg::cs::make_request(
        0x0500 | msg::kCsnameBit, naming::kDefaultContext, 3);
    const char name[] = "tmp";
    ipc::Segments segs;
    segs.read = std::as_bytes(std::span(name, 3));
    const auto reply = co_await self.send(request, fx.alpha_pid, segs);
    EXPECT_EQ(reply.reply_code(), ReplyCode::kIllegalRequest);
  });
}

}  // namespace
}  // namespace v
