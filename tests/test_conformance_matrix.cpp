// The op x server conformance matrix: one named test per (server, op) cell.
//
// The paper's uniformity claim (sections 2.2 and 6) is that one protocol
// reaches every kind of object: the same QueryName, CreateName, RemoveName,
// open and "list directory" work on files, prefixes, pipes, mailboxes,
// print jobs, connections, terminals, programs, exception reports and
// metrics.  Each test here spawns one server inside the standard test
// installation, seeds it with one object, performs one operation through the
// client runtime and compares a one-line observation with the table below:
// the reply code first, then what the operation left behind (descriptor
// fields, whether the context generation moved, whether the leaf exists
// afterwards).  docs/PROTOCOL.md section 3 carries the same table.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/reply_codes.hpp"
#include "naming/protocol.hpp"
#include "server_cases.hpp"
#include "servers/metrics_server.hpp"
#include "v_fixture.hpp"

namespace v {
namespace {

using naming::kDefaultContext;
using naming::wire::kOpenCreate;
using naming::wire::kOpenRead;
using naming::wire::kOpenWrite;
using sim::Co;

constexpr std::uint16_t kReadWrite = kOpenRead | kOpenWrite;
/// A context id no flat server implements (the metrics server's first
/// registry scope).
constexpr naming::ContextId kOtherContext = 1;

struct Client;

/// One row: how to drive a server, and what each op must answer.
struct Row {
  const char* server;  ///< label in test::kAllServers (or "MetricsServer")
  // --- inputs ---------------------------------------------------------------
  /// Puts `seed` in place before the cell runs (the server's own way of
  /// making an object: CreateName, a program load, a raised exception...).
  Co<void> (*make_seed)(Client&);
  const char* seed;     ///< an object present when every cell starts
  const char* fresh;    ///< a well-formed name not present
  const char* bad;      ///< a name CreateName refuses as malformed
  std::uint16_t mode;   ///< the mode this server's objects open with
  const char* refused;  ///< an open-with-create this server refuses ...
  std::uint16_t refused_mode;  ///< ... with this mode
  // --- expected observations, one per op ------------------------------------
  const char* query_context;
  const char* query_leaf;
  const char* create_fresh;
  const char* create_duplicate;
  const char* create_bad_name;
  const char* remove_ok;
  const char* remove_missing;
  const char* remove_while_open;
  const char* open_missing;
  const char* open_create;
  const char* open_create_refused;
  const char* read_directory;
  const char* context_name_default;
  const char* context_name_other;
  const char* file_name;
  friend void PrintTo(const Row& r, std::ostream* os) { *os << r.server; }
};

/// What a cell body works with.
struct Client {
  ipc::Process self;
  svc::Rt& rt;
  ipc::ProcessId server;
  naming::CsnhServer& srv;
  const Row& row;
  naming::ContextId ctx = kDefaultContext;  ///< the default context's id
};

std::string code_of(ReplyCode code) { return std::string(to_string(code)); }

std::string record(const naming::ObjectDescriptor& d, ipc::ProcessId server) {
  std::ostringstream out;
  out << to_string(d.type) << " flags=" << d.flags << " size=" << d.size
      << " id=" << d.object_id << " pid="
      << (d.server_pid == 0              ? "0"
          : d.server_pid == server.raw ? "self"
                                       : "other")
      << " ctx=" << d.context_id << " mtime=" << d.mtime << " owner='"
      << d.owner << "' name='" << d.name << "'";
  return out.str();
}

/// " gen+" when the default context's generation moved, " gen=" when not.
std::string gen_moved(const Client& c, std::uint32_t before) {
  return c.srv.generation(c.ctx) != before ? " gen+" : " gen=";
}

Co<std::string> exists(Client& c, std::string_view leaf) {
  const auto desc = co_await c.rt.query(leaf);
  co_return " query=" + code_of(desc.code());
}

// --- seeds -------------------------------------------------------------------

Co<void> seed_by_create(Client& c) {
  EXPECT_EQ(co_await c.rt.create(c.row.seed), ReplyCode::kOk);
}
Co<void> seed_nothing(Client&) { co_return; }
Co<void> seed_program(Client& c) {
  auto loaded =
      co_await servers::TeamServer::load_program(c.self, c.server, "[bin]edit");
  EXPECT_TRUE(loaded.ok());
}
Co<void> seed_report(Client& c) {
  auto raised = co_await servers::ExceptionServer::raise(
      c.self, c.server, servers::FaultCode::kAddressError, "bus error");
  EXPECT_TRUE(raised.ok());
}

// --- the table ---------------------------------------------------------------
// Observations are "<reply code>[ detail]".  Details: a descriptor record
// (type flags size id pid ctx mtime owner name); "gen+"/"gen=" for whether
// the context generation moved; "query=<code>" for a QueryName of the leaf
// afterwards; n=/names= for a directory; the name an inverse op returned.

const Row kRows[] = {
    {.server = "FileServer",
     .make_seed = seed_by_create,
     .seed = "seed",
     .fresh = "fresh",
     .bad = "",
     .mode = kReadWrite,
     .refused = "missing/leaf",
     .refused_mode = kReadWrite | kOpenCreate,
     .query_context = "OK context flags=3 size=0 id=1 pid=self ctx=1 mtime=0 "
         "owner='system' name=''",
     .query_leaf = "OK file flags=3 size=0 id=2 pid=0 ctx=0 mtime=0 "
         "owner='system' name='seed'",
     .create_fresh = "OK gen+ query=OK",
     .create_duplicate = "NAME_EXISTS gen=",
     .create_bad_name = "BAD_ARGS gen=",
     .remove_ok = "OK gen+ query=NOT_FOUND",
     .remove_missing = "NOT_FOUND gen=",
     .remove_while_open = "OK gen+ read=BAD_STATE",
     .open_missing = "NOT_FOUND",
     .open_create = "OK gen+ query=OK",
     .open_create_refused = "NOT_FOUND gen= query=NOT_FOUND",
     .read_directory = "OK n=1 seed",
     .context_name_default = "OK '/'",
     .context_name_other = "OK '/'",
     .file_name = "OK '/seed'"},
    {.server = "ContextPrefixServer",
     .make_seed = seed_nothing,  // defined before the server starts
     .seed = "seed",
     .fresh = "fresh",
     .bad = "",
     .mode = kOpenRead,
     .refused = "missing/leaf",
     .refused_mode = kOpenRead | kOpenCreate,
     .query_context = "OK context flags=0 size=1 id=0 pid=self ctx=0 mtime=0 "
         "owner='mann' name=''",
     .query_leaf = "OK context flags=3 size=0 id=1 pid=other ctx=1 mtime=0 "
         "owner='system' name=''",
     .create_fresh = "ILLEGAL_REQUEST gen= query=NOT_FOUND",
     .create_duplicate = "ILLEGAL_REQUEST gen=",
     .create_bad_name = "ILLEGAL_REQUEST gen=",
     .remove_ok = "ILLEGAL_REQUEST gen= query=OK",
     .remove_missing = "ILLEGAL_REQUEST gen=",
     .remove_while_open = "ILLEGAL_REQUEST gen=",
     .open_missing = "ILLEGAL_REQUEST",
     .open_create = "ILLEGAL_REQUEST gen= query=NOT_FOUND",
     .open_create_refused = "NOT_FOUND gen= query=NOT_FOUND",
     .read_directory = "OK n=1 seed",
     .context_name_default = "OK '[]'",
     .context_name_other = "NO_INVERSE",
     .file_name = "NO_INVERSE"},
    {.server = "PipeServer",
     .make_seed = seed_by_create,
     .seed = "seed",
     .fresh = "fresh",
     .bad = "",
     .mode = kOpenRead,
     .refused = "fresh",
     .refused_mode = kReadWrite | kOpenCreate,
     .query_context = "OK context flags=0 size=1 id=0 pid=self ctx=0 mtime=0 "
         "owner='' name='pipes'",
     .query_leaf = "OK device flags=3 size=0 id=1 pid=0 ctx=0 mtime=0 "
         "owner='pipe' name='seed'",
     .create_fresh = "OK gen+ query=OK",
     .create_duplicate = "NAME_EXISTS gen=",
     .create_bad_name = "BAD_ARGS gen=",
     .remove_ok = "OK gen+ query=NOT_FOUND",
     .remove_missing = "NOT_FOUND gen=",
     .remove_while_open = "BAD_STATE gen=",
     .open_missing = "NOT_FOUND",
     .open_create = "OK gen+ query=OK",
     .open_create_refused = "BAD_ARGS gen= query=NOT_FOUND",
     .read_directory = "OK n=1 seed",
     .context_name_default = "OK 'pipes'",
     .context_name_other = "NO_INVERSE",
     .file_name = "NO_INVERSE"},
    {.server = "MailServer",
     .make_seed = seed_by_create,
     .seed = "seed@host",
     .fresh = "fresh@host",
     .bad = "nobody",
     .mode = kReadWrite,
     .refused = "nobody",
     .refused_mode = kReadWrite | kOpenCreate,
     .query_context = "OK context flags=0 size=1 id=0 pid=self ctx=0 mtime=0 "
         "owner='' name='mail'",
     .query_leaf = "OK mailbox flags=7 size=0 id=1 pid=0 ctx=0 mtime=0 "
         "owner='seed' name='seed@host'",
     .create_fresh = "OK gen+ query=OK",
     .create_duplicate = "NAME_EXISTS gen=",
     .create_bad_name = "BAD_ARGS gen=",
     .remove_ok = "OK gen+ query=NOT_FOUND",
     .remove_missing = "NOT_FOUND gen=",
     .remove_while_open = "OK gen+ read=BAD_STATE",
     .open_missing = "NOT_FOUND",
     .open_create = "OK gen+ query=OK",
     .open_create_refused = "BAD_ARGS gen= query=NOT_FOUND",
     .read_directory = "OK n=1 seed@host",
     .context_name_default = "OK 'mail'",
     .context_name_other = "NO_INVERSE",
     .file_name = "NO_INVERSE"},
    {.server = "PrinterServer",
     .make_seed = seed_by_create,
     .seed = "seed",
     .fresh = "fresh",
     .bad = "",
     .mode = kOpenWrite,
     .refused = "missing/leaf",
     .refused_mode = kOpenWrite | kOpenCreate,
     .query_context = "OK context flags=0 size=1 id=0 pid=self ctx=0 mtime=0 "
         "owner='' name='printer-queue'",
     .query_leaf = "OK print-job flags=6 size=0 id=1 pid=0 ctx=2 mtime=0 "
         "owner='user' name='seed'",
     .create_fresh = "OK gen+ query=OK",
     .create_duplicate = "NAME_EXISTS gen=",
     .create_bad_name = "BAD_ARGS gen=",
     .remove_ok = "OK gen+ query=NOT_FOUND",
     .remove_missing = "NOT_FOUND gen=",
     .remove_while_open = "BAD_STATE gen=",
     .open_missing = "NOT_FOUND",
     .open_create = "OK gen+ query=OK",
     .open_create_refused = "NOT_FOUND gen= query=NOT_FOUND",
     .read_directory = "OK n=1 seed",
     .context_name_default = "OK 'printer-queue'",
     .context_name_other = "NO_INVERSE",
     .file_name = "NO_INVERSE"},
    {.server = "InternetServer",
     .make_seed = seed_by_create,
     .seed = "seed:80",
     .fresh = "fresh:80",
     .bad = "nohost",
     .mode = kReadWrite,
     .refused = "nohost",
     .refused_mode = kReadWrite | kOpenCreate,
     .query_context = "OK context flags=0 size=1 id=0 pid=self ctx=0 mtime=0 "
         "owner='' name='tcp'",
     .query_leaf = "OK connection flags=3 size=0 id=1 pid=0 ctx=0 mtime=0 "
         "owner='tcp' name='seed:80'",
     .create_fresh = "OK gen+ query=OK",
     .create_duplicate = "NAME_EXISTS gen=",
     .create_bad_name = "BAD_ARGS gen=",
     .remove_ok = "OK gen+ query=NOT_FOUND",
     .remove_missing = "NOT_FOUND gen=",
     .remove_while_open = "OK gen+ read=BAD_STATE",
     .open_missing = "NOT_FOUND",
     .open_create = "OK gen+ query=OK",
     .open_create_refused = "BAD_ARGS gen= query=NOT_FOUND",
     .read_directory = "OK n=1 seed:80",
     .context_name_default = "OK 'tcp'",
     .context_name_other = "NO_INVERSE",
     .file_name = "NO_INVERSE"},
    {.server = "TerminalServer",
     .make_seed = seed_by_create,
     .seed = "seed",
     .fresh = "fresh",
     .bad = "",
     .mode = kReadWrite,
     .refused = "missing/leaf",
     .refused_mode = kReadWrite | kOpenCreate,
     .query_context = "OK context flags=0 size=1 id=0 pid=self ctx=0 mtime=0 "
         "owner='' name='terminals'",
     .query_leaf = "OK terminal flags=7 size=0 id=1 pid=0 ctx=0 mtime=0 "
         "owner='user' name='seed'",
     .create_fresh = "OK gen+ query=OK",
     .create_duplicate = "NAME_EXISTS gen=",
     .create_bad_name = "BAD_ARGS gen=",
     .remove_ok = "OK gen+ query=NOT_FOUND",
     .remove_missing = "NOT_FOUND gen=",
     .remove_while_open = "OK gen+ read=BAD_STATE",
     .open_missing = "NOT_FOUND",
     .open_create = "OK gen+ query=OK",
     .open_create_refused = "NOT_FOUND gen= query=NOT_FOUND",
     .read_directory = "OK n=1 seed",
     .context_name_default = "OK 'terminals'",
     .context_name_other = "NO_INVERSE",
     .file_name = "NO_INVERSE"},
    {.server = "TeamServer",
     .make_seed = seed_program,
     .seed = "edit.1",
     .fresh = "fresh",
     .bad = "",
     .mode = kOpenRead,
     .refused = "fresh",
     .refused_mode = kOpenRead | kOpenCreate,
     .query_context = "OK context flags=0 size=1 id=0 pid=self ctx=0 mtime=0 "
         "owner='' name='programs'",
     .query_leaf = "OK process flags=0 size=4096 id=1 pid=0 ctx=0 mtime=0 "
         "owner='team' name='edit.1'",
     .create_fresh = "ILLEGAL_REQUEST gen= query=NOT_FOUND",
     .create_duplicate = "ILLEGAL_REQUEST gen=",
     .create_bad_name = "ILLEGAL_REQUEST gen=",
     .remove_ok = "OK gen+ query=NOT_FOUND",
     .remove_missing = "NOT_FOUND gen=",
     .remove_while_open = "open=ILLEGAL_REQUEST",
     .open_missing = "ILLEGAL_REQUEST",
     .open_create = "ILLEGAL_REQUEST gen= query=NOT_FOUND",
     .open_create_refused = "ILLEGAL_REQUEST gen= query=NOT_FOUND",
     .read_directory = "OK n=1 edit.1",
     .context_name_default = "OK 'programs'",
     .context_name_other = "NO_INVERSE",
     .file_name = "open=ILLEGAL_REQUEST"},
    {.server = "ExceptionServer",
     .make_seed = seed_report,
     .seed = "exc.1",
     .fresh = "fresh",
     .bad = "",
     .mode = kOpenRead,
     .refused = "fresh",
     .refused_mode = kOpenRead | kOpenCreate,
     .query_context = "OK context flags=0 size=1 id=0 pid=self ctx=0 mtime=0 "
         "owner='' name='exceptions'",
     .query_leaf = "OK device flags=1 size=9 id=65537 pid=other ctx=0 mtime=0 "
         "owner='exception' name='exc.1'",
     .create_fresh = "ILLEGAL_REQUEST gen= query=NOT_FOUND",
     .create_duplicate = "ILLEGAL_REQUEST gen=",
     .create_bad_name = "ILLEGAL_REQUEST gen=",
     .remove_ok = "OK gen+ query=NOT_FOUND",
     .remove_missing = "NOT_FOUND gen=",
     .remove_while_open = "OK gen+ read=OK",
     .open_missing = "NOT_FOUND",
     .open_create = "NOT_FOUND gen= query=NOT_FOUND",
     .open_create_refused = "NOT_FOUND gen= query=NOT_FOUND",
     .read_directory = "OK n=1 exc.1",
     .context_name_default = "OK 'exceptions'",
     .context_name_other = "NO_INVERSE",
     .file_name = "NO_INVERSE"},
    {.server = "MetricsServer",
     .make_seed = seed_nothing,  // its own "requests" counter is the seed
     .seed = "srv/requests",
     .fresh = "srv/fresh",
     .bad = "",
     .mode = kOpenRead,
     .refused = "srv/fresh",
     .refused_mode = kOpenRead | kOpenCreate,
     .query_context = "OK context flags=0 size=0 id=0 pid=self ctx=0 mtime=0 "
         "owner='' name=''",
     .query_leaf = "OK file flags=1 size=2 id=0 pid=self ctx=7 mtime=0 "
         "owner='' name='requests'",
     .create_fresh = "ILLEGAL_REQUEST gen= query=NOT_FOUND",
     .create_duplicate = "ILLEGAL_REQUEST gen=",
     .create_bad_name = "ILLEGAL_REQUEST gen=",
     .remove_ok = "ILLEGAL_REQUEST gen= query=OK",
     .remove_missing = "ILLEGAL_REQUEST gen=",
     .remove_while_open = "ILLEGAL_REQUEST gen=",
     .open_missing = "NOT_FOUND",
     .open_create = "NOT_FOUND gen= query=NOT_FOUND",
     .open_create_refused = "NOT_FOUND gen= query=NOT_FOUND",
     .read_directory = "OK n=8 ipc lint loop frames flight trace srv "
         "flight-dump",
     .context_name_default = "OK ''",
     .context_name_other = "OK 'ipc'",
     .file_name = "NO_INVERSE"},
};

std::unique_ptr<naming::CsnhServer> make_server(std::string_view name) {
  if (name == "MetricsServer") {
    return std::make_unique<servers::MetricsServer>();
  }
  const auto it = std::find_if(
      std::begin(test::kAllServers), std::end(test::kAllServers),
      [name](const test::ServerCase& c) { return name == c.name; });
  return it->make({});
}

class Conformance : public ::testing::TestWithParam<Row> {
 protected:
  /// Spawn the row's server on the workstation, seed it, run `op` as a
  /// client with the server's default context current, and compare the
  /// observation with the row's `expected` column.
  void check(const char* Row::*expected, Co<std::string> (*op)(Client&)) {
    const Row& row = GetParam();
    test::VFixture fx;
    auto srv = make_server(row.server);
    if (auto* prefixes =
            dynamic_cast<servers::ContextPrefixServer*>(srv.get())) {
      prefixes->define(row.seed, {.target = {fx.alpha_pid, kDefaultContext}});
    }
    const auto server_pid =
        fx.ws1.spawn("srv", [&](ipc::Process p) { return srv->run(p); });
    std::string observed;
    fx.run_client([&](ipc::Process self, svc::Rt rt) -> Co<void> {
      rt.set_current({server_pid, kDefaultContext});
      Client client{self, rt, server_pid, *srv, row};
      co_await row.make_seed(client);
      // The id the default context goes by (the file server's root is 1).
      const auto context = co_await rt.query("");
      if (context.ok()) client.ctx = context.value().context_id;
      observed = co_await op(client);
    });
    EXPECT_EQ(observed, row.*expected);
  }
};

TEST_P(Conformance, QueryContext) {
  check(&Row::query_context, [](Client& c) -> Co<std::string> {
    auto desc = co_await c.rt.query("");
    if (!desc.ok()) co_return code_of(desc.code());
    co_return "OK " + record(desc.value(), c.server);
  });
}

TEST_P(Conformance, QueryLeaf) {
  check(&Row::query_leaf, [](Client& c) -> Co<std::string> {
    auto desc = co_await c.rt.query(c.row.seed);
    if (!desc.ok()) co_return code_of(desc.code());
    co_return "OK " + record(desc.value(), c.server);
  });
}

TEST_P(Conformance, CreateFresh) {
  check(&Row::create_fresh, [](Client& c) -> Co<std::string> {
    const auto gen = c.srv.generation(c.ctx);
    const auto code = co_await c.rt.create(c.row.fresh);
    const std::string moved = gen_moved(c, gen);
    const std::string after = co_await exists(c, c.row.fresh);
    co_return code_of(code) + moved + after;
  });
}

TEST_P(Conformance, CreateDuplicate) {
  check(&Row::create_duplicate, [](Client& c) -> Co<std::string> {
    const auto gen = c.srv.generation(c.ctx);
    const auto code = co_await c.rt.create(c.row.seed);
    co_return code_of(code) + gen_moved(c, gen);
  });
}

TEST_P(Conformance, CreateBadName) {
  check(&Row::create_bad_name, [](Client& c) -> Co<std::string> {
    const auto gen = c.srv.generation(c.ctx);
    const auto code = co_await c.rt.create(c.row.bad);
    co_return code_of(code) + gen_moved(c, gen);
  });
}

TEST_P(Conformance, RemoveOk) {
  check(&Row::remove_ok, [](Client& c) -> Co<std::string> {
    const auto gen = c.srv.generation(c.ctx);
    const auto code = co_await c.rt.remove(c.row.seed);
    const std::string moved = gen_moved(c, gen);
    const std::string after = co_await exists(c, c.row.seed);
    co_return code_of(code) + moved + after;
  });
}

TEST_P(Conformance, RemoveMissing) {
  check(&Row::remove_missing, [](Client& c) -> Co<std::string> {
    const auto gen = c.srv.generation(c.ctx);
    const auto code = co_await c.rt.remove(c.row.fresh);
    co_return code_of(code) + gen_moved(c, gen);
  });
}

// Remove the seed while an instance of it is open (and, for writeable
// objects, freshly written): the printer vetoes a job mid-print and the pipe
// a pipe with an open end; the others remove it, and a readable instance
// then reads what is left of it.
TEST_P(Conformance, RemoveWhileOpen) {
  check(&Row::remove_while_open, [](Client& c) -> Co<std::string> {
    auto opened = co_await c.rt.open(c.row.seed, c.row.mode);
    if (!opened.ok()) co_return "open=" + code_of(opened.code());
    svc::File file = opened.take();
    if ((c.row.mode & kOpenWrite) != 0) {
      const std::string text(16, 'x');
      auto wrote = co_await file.write_block(
          0, std::as_bytes(std::span(text.data(), text.size())));
      EXPECT_TRUE(wrote.ok());
    }
    const auto gen = c.srv.generation(c.ctx);
    const auto code = co_await c.rt.remove(c.row.seed);
    std::string out = code_of(code) + gen_moved(c, gen);
    if (code == ReplyCode::kOk && (c.row.mode & kOpenRead) != 0) {
      std::vector<std::byte> buf(64);
      const auto got = co_await file.read_block(0, buf);
      out += " read=" + code_of(got.code());
    }
    (void)co_await file.close();
    co_return out;
  });
}

TEST_P(Conformance, OpenMissing) {
  check(&Row::open_missing, [](Client& c) -> Co<std::string> {
    auto opened = co_await c.rt.open(c.row.fresh, c.row.mode);
    if (opened.ok()) (void)co_await opened.value().close();
    co_return code_of(opened.code());
  });
}

TEST_P(Conformance, OpenCreate) {
  check(&Row::open_create, [](Client& c) -> Co<std::string> {
    const auto gen = c.srv.generation(c.ctx);
    auto opened = co_await c.rt.open(c.row.fresh, c.row.mode | kOpenCreate);
    std::string out = code_of(opened.code()) + gen_moved(c, gen);
    if (opened.ok()) (void)co_await opened.value().close();
    const std::string after = co_await exists(c, c.row.fresh);
    co_return out + after;
  });
}

// PROTOCOL.md 11: a refused open-with-create changes nothing — no leaf
// appears and the generation stays put.
TEST_P(Conformance, OpenCreateRefused) {
  check(&Row::open_create_refused, [](Client& c) -> Co<std::string> {
    const auto gen = c.srv.generation(c.ctx);
    auto opened = co_await c.rt.open(c.row.refused, c.row.refused_mode);
    std::string out = code_of(opened.code()) + gen_moved(c, gen);
    if (opened.ok()) (void)co_await opened.value().close();
    const std::string after = co_await exists(c, c.row.refused);
    co_return out + after;
  });
}

TEST_P(Conformance, ReadDirectory) {
  check(&Row::read_directory, [](Client& c) -> Co<std::string> {
    auto records = co_await c.rt.list_context("");
    if (!records.ok()) co_return code_of(records.code());
    std::string out = "OK n=" + std::to_string(records.value().size());
    for (const auto& d : records.value()) out += " " + d.name;
    co_return out;
  });
}

TEST_P(Conformance, ContextNameDefault) {
  check(&Row::context_name_default, [](Client& c) -> Co<std::string> {
    auto name = co_await c.rt.context_name({c.server, kDefaultContext});
    if (!name.ok()) co_return code_of(name.code());
    co_return "OK '" + name.value() + "'";
  });
}

TEST_P(Conformance, ContextNameOther) {
  check(&Row::context_name_other, [](Client& c) -> Co<std::string> {
    auto name = co_await c.rt.context_name({c.server, kOtherContext});
    if (!name.ok()) co_return code_of(name.code());
    co_return "OK '" + name.value() + "'";
  });
}

TEST_P(Conformance, FileName) {
  check(&Row::file_name, [](Client& c) -> Co<std::string> {
    auto opened = co_await c.rt.open(c.row.seed, c.row.mode);
    if (!opened.ok()) co_return "open=" + code_of(opened.code());
    svc::File file = opened.take();
    auto name = co_await c.rt.file_name(c.server, file.instance());
    (void)co_await file.close();
    if (!name.ok()) co_return code_of(name.code());
    co_return "OK '" + name.value() + "'";
  });
}

INSTANTIATE_TEST_SUITE_P(TenServers, Conformance, ::testing::ValuesIn(kRows));

}  // namespace
}  // namespace v
