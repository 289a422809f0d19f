// The concrete CSNH servers as a list of labelled factories, shared by the
// suites that run one check against every server (test_busy_shed's queue-cap
// shedding, test_conformance_matrix's op x server table).
#pragma once

#include <functional>
#include <memory>
#include <ostream>

#include "naming/csnh_server.hpp"
#include "servers/exception_server.hpp"
#include "servers/file_server.hpp"
#include "servers/internet_server.hpp"
#include "servers/mail_server.hpp"
#include "servers/pipe_server.hpp"
#include "servers/prefix_server.hpp"
#include "servers/printer_server.hpp"
#include "servers/team_server.hpp"
#include "servers/terminal_server.hpp"

namespace v::test {

// A server factory and its label.  PrintTo prints only the label, so the
// parameterised test names stay the same from one build to the next.
struct ServerCase {
  const char* name;
  std::function<std::unique_ptr<naming::CsnhServer>(naming::TeamConfig)> make;
  friend void PrintTo(const ServerCase& c, std::ostream* os) { *os << c.name; }
};

/// Every server that registers no service (so several can share a host).
inline const ServerCase kAllServers[] = {
    {"FileServer",
     [](naming::TeamConfig t) -> std::unique_ptr<naming::CsnhServer> {
       return std::make_unique<servers::FileServer>(
           "shed", servers::DiskModel::kMemory, false, t);
     }},
    {"ContextPrefixServer",
     [](naming::TeamConfig t) -> std::unique_ptr<naming::CsnhServer> {
       return std::make_unique<servers::ContextPrefixServer>("mann", false,
                                                             t);
     }},
    {"PipeServer",
     [](naming::TeamConfig t) -> std::unique_ptr<naming::CsnhServer> {
       return std::make_unique<servers::PipeServer>(64 * 1024, t);
     }},
    {"MailServer",
     [](naming::TeamConfig t) -> std::unique_ptr<naming::CsnhServer> {
       return std::make_unique<servers::MailServer>(false, t);
     }},
    {"PrinterServer",
     [](naming::TeamConfig t) -> std::unique_ptr<naming::CsnhServer> {
       return std::make_unique<servers::PrinterServer>(1024, false, t);
     }},
    {"InternetServer",
     [](naming::TeamConfig t) -> std::unique_ptr<naming::CsnhServer> {
       return std::make_unique<servers::InternetServer>(
           5 * sim::kMillisecond, false, t);
     }},
    {"TerminalServer",
     [](naming::TeamConfig t) -> std::unique_ptr<naming::CsnhServer> {
       return std::make_unique<servers::TerminalServer>(false, t);
     }},
    {"TeamServer",
     [](naming::TeamConfig t) -> std::unique_ptr<naming::CsnhServer> {
       return std::make_unique<servers::TeamServer>(naming::ContextPair{},
                                                    false, t);
     }},
    {"ExceptionServer",
     [](naming::TeamConfig t) -> std::unique_ptr<naming::CsnhServer> {
       return std::make_unique<servers::ExceptionServer>(false, t);
     }},
};

}  // namespace v::test
