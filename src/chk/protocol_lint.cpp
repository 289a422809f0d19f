#include "chk/protocol_lint.hpp"

#include <sstream>

#include "msg/csname.hpp"
#include "msg/request_codes.hpp"

namespace v::chk {

static_assert(kMaxReplyCode == 20,
              "ReplyCode grew: update kMaxReplyCode and PROTOCOL.md's "
              "checked-invariants table");

namespace {

std::string_view request_code_name(std::uint16_t code) {
  switch (code) {
    case msg::kMapContextName: return "kMapContextName";
    case msg::kQueryName: return "kQueryName";
    case msg::kModifyName: return "kModifyName";
    case msg::kRemoveName: return "kRemoveName";
    case msg::kRenameName: return "kRenameName";
    case msg::kAddContextName: return "kAddContextName";
    case msg::kDeleteContextName: return "kDeleteContextName";
    case msg::kCreateInstance: return "kCreateInstance";
    case msg::kCreateName: return "kCreateName";
    case msg::kMakeContext: return "kMakeContext";
    case msg::kLinkContext: return "kLinkContext";
    case msg::kGetContextName: return "kGetContextName";
    case msg::kGetFileName: return "kGetFileName";
    case msg::kQueryInstance: return "kQueryInstance";
    case msg::kReadInstance: return "kReadInstance";
    case msg::kWriteInstance: return "kWriteInstance";
    case msg::kReleaseInstance: return "kReleaseInstance";
    case msg::kGetTime: return "kGetTime";
    case msg::kLoadProgram: return "kLoadProgram";
    default: return {};
  }
}

void append_hex16(std::ostringstream& out, std::uint16_t v) {
  out << "0x" << std::hex << v << std::dec;
}

}  // namespace

std::string decode_message(const msg::Message& m) {
  std::ostringstream out;
  const std::uint16_t code = m.code();
  out << "  code         = ";
  append_hex16(out, code);
  if (const auto name = request_code_name(code); !name.empty()) {
    out << " (" << name << ")";
  }
  if (code <= kMaxReplyCode) {
    out << " [as reply: " << to_string(static_cast<ReplyCode>(code)) << "]";
  }
  out << "\n";
  if (msg::is_csname_request(code)) {
    out << "  nameindex    = " << msg::cs::name_index(m) << "\n"
        << "  namelength   = " << msg::cs::name_length(m) << "\n"
        << "  mode         = " << msg::cs::mode(m) << "\n"
        << "  forwardcount = "
        << static_cast<unsigned>(msg::cs::forward_count(m)) << "\n"
        << "  contextid    = " << msg::cs::context_id(m) << "\n"
        << "  csflags      = "
        << static_cast<unsigned>(msg::cs::cs_flags(m)) << "\n"
        << "  expectedgen  = " << msg::cs::expected_generation(m) << "\n";
  } else {
    out << "  (non-CSname request: no standard name fields)\n"
        << "  word[1]      = " << m.u16(2) << "\n"
        << "  word[2..3]   = " << m.u32(4) << "\n";
  }
  return out.str();
}

void ProtocolLint::register_server(std::uint32_t pid, std::string label,
                                   std::function<bool(std::uint32_t)>
                                       ctx_valid,
                                   std::uint32_t gen_floor) {
  // Incarnation invariant (V-fault): generations are domain-monotone, so a
  // later incarnation of the same service must start above every floor it
  // registered before — otherwise bindings cached against the previous
  // incarnation would not be invalidated by the generation check.
  if (gen_floor != 0) {
    auto& floor = incarnation_floor_[label];
    if (gen_floor <= floor) {
      ++counters_.stale_incarnations;
      std::ostringstream out;
      out << "protocol lint: stale incarnation of server '" << label
          << "' (pid " << pid << "): generation floor " << gen_floor
          << " does not exceed previous floor " << floor << "\n";
      record_dump(out.str());
    } else {
      floor = gen_floor;
    }
  }
  servers_[pid] = ServerInfo{std::move(label), std::move(ctx_valid)};
}

void ProtocolLint::register_worker(std::uint32_t pid, std::string label,
                                   std::uint32_t server_pid) {
  workers_[pid] = WorkerInfo{std::move(label), server_pid};
}

void ProtocolLint::forget(std::uint32_t pid) {
  servers_.erase(pid);
  workers_.erase(pid);
  outstanding_.erase(pid);
}

std::uint64_t* ProtocolLint::owed(std::uint32_t server_pid,
                                  std::uint32_t client_pid) {
  const auto ledger = outstanding_.find(server_pid);
  if (ledger == outstanding_.end()) return nullptr;
  const auto it = ledger->second.find(client_pid);
  return it != ledger->second.end() ? &it->second : nullptr;
}

void ProtocolLint::settle(std::uint32_t server_pid,
                          std::uint32_t client_pid) {
  std::uint64_t* const count = owed(server_pid, client_pid);
  if (count != nullptr && *count > 0) --*count;
}

void ProtocolLint::note_forwarded(std::uint32_t server_pid,
                                  std::uint32_t client_pid) {
  settle(server_pid, client_pid);
}

void ProtocolLint::note_unanswered(std::uint32_t server_pid,
                                   std::uint32_t client_pid) {
  settle(server_pid, client_pid);
}

void ProtocolLint::record_dump(std::string dump) {
  if (first_dump_.empty()) first_dump_ = std::move(dump);
}

std::optional<ReplyCode> ProtocolLint::check_request_slow(
    const msg::Message& request, std::uint32_t sender_pid,
    std::size_t read_segment_bytes, std::uint32_t dest_pid,
    std::uint64_t now) {
  const auto server = servers_.find(dest_pid);
  if (server == servers_.end()) return std::nullopt;
  ++counters_.requests_checked;

  const std::uint16_t code = request.code();
  const auto reject = [&](std::string_view why) -> ReplyCode {
    ++counters_.client_rejects;
    std::ostringstream out;
    out << "protocol lint: malformed request rejected: " << why << "\n"
        << "  sender pid " << sender_pid << " -> server '"
        << server->second.label << "' (pid " << dest_pid << ") at t=" << now
        << "\n"
        << decode_message(request);
    record_dump(out.str());
    return ReplyCode::kBadArgs;
  };

  // Invariant 1 (section 3.2): the first word of every request is a request
  // code, and all protocol code ranges start at 0x0100.  A reply code (or
  // zero) in a request's code field is a confused client.
  if (code < 0x0100) return reject("request code below protocol ranges");

  if (msg::is_csname_request(code)) {
    const std::uint16_t index = msg::cs::name_index(request);
    const std::uint16_t length = msg::cs::name_length(request);
    // Invariant 2 (section 5.3): interpretation resumes at nameindex,
    // which must lie within the name.
    if (index > length) return reject("nameindex exceeds namelength");
    // Invariant 3 (section 5.3): names are bounded; a claimed length past
    // the protocol maximum can never be fetched.
    if (length > kMaxCheckedNameLength) {
      return reject("namelength exceeds protocol maximum");
    }
    // Invariant 4 (section 5.3): the name bytes travel in the sender's
    // read segment; namelength > 0 promises at least that many bytes.
    if (length > 0 && read_segment_bytes < length) {
      return reject("name bytes absent from sender segment");
    }
    // Invariant 5 (sections 5.4, 5.8): the context id should resolve on
    // the receiving server.  Stale ids are paper-sanctioned (the server
    // answers kInvalidContext and the client re-resolves), so this is a
    // statistic, never a rejection.
    if (server->second.ctx_valid &&
        !server->second.ctx_valid(msg::cs::context_id(request))) {
      if (msg::cs::forward_count(request) > 0) {
        ++counters_.stale_context_forwards;
      } else {
        ++counters_.invalid_context_requests;
      }
    }
    // Invariant 7 (validated caching, PROTOCOL.md 11): the expected-
    // generation fields are self-consistent.  Flag bits beyond the defined
    // set, or a generation value without its flag, betray a client writing
    // garbage into header space it does not understand.
    const std::uint8_t flags = msg::cs::cs_flags(request);
    if ((flags &
         ~(msg::cs::kFlagExpectGen | msg::cs::kFlagRecoveryProbe)) != 0) {
      return reject("unknown CSname header flag bits");
    }
    if ((flags & msg::cs::kFlagExpectGen) == 0 &&
        msg::cs::expected_generation(request) != 0) {
      return reject("expected-generation bytes set without the flag");
    }
  }
  // Duplicate-reply invariant (V-fault): the request is about to be
  // delivered, so the server owes this client exactly one settlement —
  // a reply, a forward, or deliberate probe silence.
  ++outstanding_[dest_pid][sender_pid];
  return std::nullopt;
}

void ProtocolLint::check_reply_slow(const msg::Message& reply,
                               std::uint32_t from_pid, std::uint32_t to_pid,
                               std::uint64_t now) {
  std::string_view label;
  std::uint32_t canonical = from_pid;  // receptionist owning the ledger
  if (const auto s = servers_.find(from_pid); s != servers_.end()) {
    label = s->second.label;
  } else if (const auto w = workers_.find(from_pid); w != workers_.end()) {
    label = w->second.label;
    if (w->second.server_pid != 0) canonical = w->second.server_pid;
  } else {
    return;
  }
  ++counters_.replies_checked;

  // Duplicate-reply invariant (V-fault): a reply with nothing outstanding
  // means the server answered the same request twice (or invented one) —
  // under duplicated/reordered requests that is exactly the at-most-once
  // property breaking.
  std::uint64_t* const count = owed(canonical, to_pid);
  if (count == nullptr || *count == 0) {
    ++counters_.duplicate_replies;
    std::ostringstream dup;
    dup << "protocol lint: duplicate reply from server process '" << label
        << "' (pid " << from_pid << ") to pid " << to_pid << " at t=" << now
        << ": no request outstanding\n"
        << decode_message(reply);
    record_dump(dup.str());
  } else {
    --*count;
  }

  // Invariant 6 (section 3.2): every reply begins with a standard reply
  // code.  A registered server emitting a code outside the set is
  // non-conformant; record it (tests assert on the counter) but deliver
  // the reply so the failure is visible end to end.
  if (reply.code() > kMaxReplyCode) {
    ++counters_.server_violations;
    std::ostringstream out;
    out << "protocol lint: non-standard reply code from server process '"
        << label << "' (pid " << from_pid << ") to pid " << to_pid
        << " at t=" << now << "\n"
        << decode_message(reply);
    record_dump(out.str());
  }
}

}  // namespace v::chk
