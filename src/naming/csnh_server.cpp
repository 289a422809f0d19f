#include "naming/csnh_server.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "naming/match.hpp"
#include "naming/parse.hpp"
#include "common/annotate.hpp"

namespace v::naming {

// The protocol lint cannot include naming/ (layering), so it mirrors the
// name-length bound; keep the two constants locked together.
static_assert(chk::kMaxCheckedNameLength == kMaxNameLength,
              "chk::kMaxCheckedNameLength must mirror naming::kMaxNameLength");

namespace {

using msg::Message;
using msg::RequestCode;

/// A context directory: "logically a file consisting of a sequence of
/// description records, one for each object in the associated context"
/// (section 5.6).  Reading returns the fabricated snapshot; writing a
/// record has the same semantics as invoking the modification operation on
/// the corresponding object.
class ContextDirectoryInstance : public io::BufferInstance {
 public:
  ContextDirectoryInstance(ContextId ctx,
                           std::vector<std::byte> snapshot,
                           std::function<sim::Co<ReplyCode>(
                               ipc::Process&, ContextId,
                               const ObjectDescriptor&)> apply)
      : BufferInstance(std::move(snapshot),
                       io::kInstanceReadable | io::kInstanceWriteable),
        ctx_(ctx),
        apply_(std::move(apply)) {}

  V_BORROWS_SPAN
  sim::Co<Result<std::size_t>> write_block(
      ipc::Process& self, std::uint32_t block,
      std::span<const std::byte> data) override {
    auto written = co_await BufferInstance::write_block(self, block, data);
    if (!written.ok()) co_return written;
    // Apply every complete descriptor record covered by this write.
    const std::size_t begin =
        static_cast<std::size_t>(block) * info().block_bytes;
    const std::size_t end = begin + written.value();
    const std::size_t first_rec = begin / ObjectDescriptor::kWireSize;
    for (std::size_t rec = first_rec;
         (rec + 1) * ObjectDescriptor::kWireSize <= data_.size() &&
         rec * ObjectDescriptor::kWireSize < end;
         ++rec) {
      auto decoded = ObjectDescriptor::decode(std::span<const std::byte>(
          data_.data() + rec * ObjectDescriptor::kWireSize,
          ObjectDescriptor::kWireSize));
      if (!decoded.ok()) continue;  // garbage record: server ignores it
      (void)co_await apply_(self, ctx_, decoded.value());
    }
    co_return written;
  }

 private:
  ContextId ctx_;
  std::function<sim::Co<ReplyCode>(ipc::Process&, ContextId,
                                   const ObjectDescriptor&)> apply_;
};

/// RAII hop span (V-trace): opened when a server dispatches a traced
/// request, with a queue-wait child covering mailbox-arrival → dispatch
/// (ended immediately) and a service child ended when the dispatch frame
/// unwinds — i.e. after the reply or forward.  Construction re-parents the
/// envelope, so a forwarded request hangs its next hop under this one.
class HopTrace {
 public:
  HopTrace(ipc::Domain& domain, obs::TraceSink& sink, ipc::Envelope& env,
           ipc::ProcessId server_pid, ipc::ProcessId worker_pid)
      : domain_(domain), sink_(sink) {
    const std::uint64_t trace = env.trace.trace_id;
    const sim::SimTime now = domain_.now();
    const sim::SimTime arrived =
        env.trace.enqueued_at >= 0 ? env.trace.enqueued_at : now;
    const std::string server = domain_.process_name(server_pid);
    hop_ = sink_.begin_span(trace, env.trace.parent_span, "hop " + server,
                            "hop", worker_pid.raw, arrived);
    sink_.set_process_label(server_pid.raw, server);
    sink_.annotate(hop_, "op",
                   std::string(obs::opcode_label(env.request.code())));
    if (msg::is_csname_request(env.request.code())) {
      sink_.annotate(hop_, "context_id",
                     std::to_string(msg::cs::context_id(env.request)));
      sink_.annotate(hop_, "name_index",
                     std::to_string(msg::cs::name_index(env.request)));
      sink_.annotate(hop_, "forward_count",
                     std::to_string(msg::cs::forward_count(env.request)));
    }
    if (worker_pid != server_pid) {
      sink_.annotate(hop_, "worker", domain_.process_name(worker_pid));
      sink_.set_process_label(worker_pid.raw,
                              domain_.process_name(worker_pid));
    }
    const std::uint32_t queue = sink_.begin_span(
        trace, hop_, "queue-wait", "queue", worker_pid.raw, arrived);
    sink_.end_span(queue, now);
    service_ = sink_.begin_span(trace, hop_, "service", "service",
                                worker_pid.raw, now);
    env.trace.parent_span = hop_;
  }
  HopTrace(const HopTrace&) = delete;
  HopTrace& operator=(const HopTrace&) = delete;
  ~HopTrace() {
    const sim::SimTime now = domain_.now();
    sink_.end_span(service_, now);
    sink_.end_span(hop_, now);
  }

 private:
  ipc::Domain& domain_;
  obs::TraceSink& sink_;
  std::uint32_t hop_ = 0;
  std::uint32_t service_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Run loop and dispatch (receptionist + worker team)
// ---------------------------------------------------------------------------

sim::Co<void> CsnhServer::run(ipc::Process self) {
  pid_ = self.pid();
  metrics_scope_ = self.domain().process_name(pid_);
  // Metric handles are per-incarnation: every cached registry pointer is
  // dropped and re-resolved on first use.
  reset_metric_handles();
  // Re-spawn safety (crash + restart reuses the server object): drop any
  // backlog and gate state the previous incarnation left behind (its gate
  // holders are meaningless to the race detector).
  work_queue_.raw().clear();
  gates_.clear();
  // Fresh incarnation, fresh generation floor: every generation a client
  // cached against a previous incarnation (or against whatever server held
  // this pid before) is now strictly below the floor and must mismatch.
  generations_.clear();
  gen_floor_ = self.domain().next_name_generation();
  // gen_floor_ doubles as the incarnation floor: the lint asserts each
  // re-registration under this label starts strictly above the last.
  self.domain().lint().register_server(
      pid_.raw, self.domain().process_name(pid_),
      [this](std::uint32_t ctx) {
        return context_valid(translate_context(ctx));
      },
      gen_floor_);
  // (Re)join the service group: a restarted incarnation becomes reachable
  // by recovery probes the moment it is back, under its brand-new pid.
  if (service_group_ != 0) self.join_group(service_group_);
  if (team_.workers == 0) team_.workers = 1;
  if (team_.queue_cap == 0) team_.queue_cap = 1;
  co_await on_start(self);
  if (team_.workers == 1) {
    // Classic serial server: one process receives and dispatches.
    for (;;) {
      auto env = co_await self.receive();
      co_await dispatch(self, std::move(env));
    }
  }
  // Team mode.  Workers live on the same host (a V team shares a machine
  // and dies with it) and pull from the shared queue; the receptionist
  // fiber below only receives, sheds, and enqueues — it never co_awaits a
  // dispatch, so a slow request occupies one worker, not the whole server.
  auto& host = *self.domain().hosts()[self.host_id() - 1];
  host.spawn_team(self.domain().process_name(pid_) + "-worker", team_.workers,
                  [this](ipc::Process worker, std::size_t /*index*/) {
                    return worker_loop(worker);
                  });
  for (;;) {
    auto env = co_await self.receive();
    const bool express = express_lane(env.request);
    {
      auto queue = work_queue_.write(self);
      if (!express && queue->size() >= team_.queue_cap) {
        ++sheds_;
        cached_counter(self, m_sheds_, "sheds").inc();
        // The traced request dies here: an instant mark keeps the shed
        // visible in the hop tree (the root span closes with kBusy).
        if (auto& tr = self.domain().tracer();
            tr.active() && env.trace.trace_id != 0) {
          const auto t = self.domain().now();
          tr.mark(env.trace.trace_id, env.trace.parent_span,
                  "shed " + metrics_scope_, pid_.raw, t, t);
        }
        reply_csname(self, env, msg::make_reply(ReplyCode::kBusy));
        continue;
      }
      if (express) {
        queue->push_front(std::move(env));
      } else {
        queue->push_back(std::move(env));
      }
      cached_gauge(self, m_queue_depth_, "queue_depth")
          .set(static_cast<std::int64_t>(queue->size()));
    }
    work_ready_.notify_one(self.domain().loop());
  }
}

sim::Co<void> CsnhServer::worker_loop(ipc::Process self) {
  // server_pid ties the worker's replies to the receptionist's
  // outstanding-request ledger (requests arrive at pid_, workers answer).
  self.domain().lint().register_worker(
      self.pid().raw, self.domain().process_name(self.pid()), pid_.raw);
  for (;;) {
    while (work_queue_.read(self)->empty()) {
      co_await self.wait_on(work_ready_);
    }
    ipc::Envelope env = take_work(self);
    co_await dispatch(self, std::move(env));
  }
}

V_NO_SUSPEND
ipc::Envelope CsnhServer::take_work(ipc::Process& self) {
  auto queue = work_queue_.write(self);
  ipc::Envelope env = std::move(queue->front());
  queue->pop_front();
  return env;
}

// ---------------------------------------------------------------------------
// Mutating-op serialization gates
// ---------------------------------------------------------------------------

bool CsnhServer::mutates_name(std::uint16_t code,
                              std::uint16_t mode) noexcept {
  if (defines_leaf(code)) return true;
  switch (code) {
    case RequestCode::kModifyName:
      return true;
    case RequestCode::kCreateInstance:
      return (mode & wire::kOpenCreate) != 0;  // open may create the leaf
    case RequestCode::kMapContextName:
    case RequestCode::kQueryName:
      return false;
    default:
      // Custom CSname codes: the base cannot prove they are read-only.
      return msg::is_csname_request(code);
  }
}

std::uint64_t CsnhServer::GateLock::key_hash() const noexcept {
  std::uint64_t h = 14695981039346656037ULL ^ key_.first;
  for (char c : key_.second) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

void CsnhServer::GateLock::note_acquired(Gate& gate) const {
  gate.holder = pid_;
  gate.held_since = domain_.loop().now();
  domain_.flight().record(pid_.logical_host(), obs::FlightKind::kGateAcquire,
                          gate.held_since, pid_.raw, 0, 0, key_hash());
}

bool CsnhServer::GateLock::await_ready() {
  Gate& gate = server_.gates_[key_];
  if (!gate.holder.valid()) {
    acquired_ = true;
    note_acquired(gate);
    return true;  // uncontended: acquire without suspending
  }
  return false;
}

void CsnhServer::GateLock::await_suspend(std::coroutine_handle<> h) {
  handle_ = h;
  queued_ = true;
  server_.gates_[key_].waiters.push_back(this);
}

void CsnhServer::GateLock::await_resume() const {
  if (fiber_ && fiber_->killed) throw sim::FiberKilled{};
}

CsnhServer::GateLock::~GateLock() {
  auto it = server_.gates_.find(key_);
  if (it == server_.gates_.end()) return;  // gates_ cleared by a re-run
  Gate& gate = it->second;
  if (!acquired_) {
    // Died while still waiting: unlink so the releaser never grants a
    // destroyed frame.
    std::erase(gate.waiters, this);
    if (!gate.holder.valid() && gate.waiters.empty()) {
      server_.gates_.erase(it);
    }
    return;
  }
  {
    const sim::SimTime rel_now = domain_.loop().now();
    const sim::SimDuration held = rel_now - gate.held_since;
    domain_.flight().record(pid_.logical_host(),
                            obs::FlightKind::kGateRelease, rel_now, pid_.raw,
                            0, 0, static_cast<std::uint64_t>(held));
    // Gate-hold watchdog: a mutation gate held past the domain threshold
    // is exactly the serialization stall the watchdog exists to surface.
    if (domain_.watchdog_threshold() > 0 &&
        held > domain_.watchdog_threshold()) {
      domain_.flight().record(pid_.logical_host(), obs::FlightKind::kWatchdog,
                              rel_now, pid_.raw, 0, 0,
                              static_cast<std::uint64_t>(held));
      domain_.flight().trigger(obs::kDumpWatchdog, rel_now);
    }
  }
  // Hand the gate to the next waiter (FIFO) or retire it.
  while (!gate.waiters.empty()) {
    GateLock* next = gate.waiters.front();
    gate.waiters.pop_front();
    next->queued_ = false;
    next->acquired_ = true;  // ownership transfers even if killed: its
                             // resume throws and ITS destructor re-releases
    next->note_acquired(gate);  // holder changes hands, no gap
    ++server_.gate_handoffs_;
    domain_.loop().resume_after(0, next->handle_, next->fiber_);
    return;
  }
  server_.gates_.erase(it);
}

sim::Co<void> CsnhServer::dispatch(ipc::Process& self, ipc::Envelope env) {
  const std::uint16_t code = env.request.code();
  cached_counter(self, m_requests_, "requests").inc();
  req_counter(self, code).inc();
  std::optional<HopTrace> hop;
  if (auto& tr = self.domain().tracer();
      tr.active() && env.trace.trace_id != 0) {
    hop.emplace(self.domain(), tr, env, pid_, self.pid());
  }
  if (msg::is_csname_request(code)) {
    co_await handle_csname(self, env);
    co_return;
  }
  Message reply;
  switch (code) {
    case RequestCode::kQueryInstance:
    case RequestCode::kReadInstance:
    case RequestCode::kWriteInstance:
    case RequestCode::kReleaseInstance: {
      auto maybe = co_await handle_instance_op(self, env);
      if (!maybe.has_value()) co_return;  // deferred: handler replies later
      reply = *maybe;
      break;
    }
    case RequestCode::kGetContextName: {
      const ContextId ctx =
          translate_context(env.request.u32(wire::kOffInvContextId));
      reply = co_await do_inverse_name(self, env, context_to_name(ctx));
      break;
    }
    case RequestCode::kGetFileName: {
      const auto instance = static_cast<io::InstanceId>(
          env.request.u16(wire::kOffInvInstanceId));
      reply = co_await do_inverse_name(self, env, instance_to_name(instance));
      break;
    }
    default:
      reply = co_await handle_custom(self, env);
      break;
  }
  if (reply.code() == kSilentDiscard) {
    // Group-member silence for misc ops: another member of the service
    // group is the designated responder.  Settle the lint ledger so the
    // unanswered request reads as deliberate, not as a leak.
    metric_inc(self, "custom_mute");
    self.domain().lint().note_unanswered(pid_.raw, env.sender.raw);
    co_return;
  }
  self.reply(env, reply);
}

void CsnhServer::reply_csname(ipc::Process& self, const ipc::Envelope& env,
                              const msg::Message& reply) {
  if (reply.code() != static_cast<std::uint16_t>(ReplyCode::kOk) &&
      msg::is_csname_request(env.request.code()) &&
      msg::cs::is_recovery_probe(env.request)) {
    // Probe silence: some OTHER group member may be able to serve this
    // probe; an error reply from us would win the first-reply race and
    // mask it.  Settle the lint ledger so the dropped reply is deliberate,
    // not a leak.
    metric_inc(self, "probe_drops");
    self.domain().lint().note_unanswered(pid_.raw, env.sender.raw);
    return;
  }
  self.reply(env, reply);
}

bool CsnhServer::defines_leaf(std::uint16_t code) noexcept {
  switch (code) {
    case RequestCode::kAddContextName:
    case RequestCode::kDeleteContextName:
    case RequestCode::kCreateName:
    case RequestCode::kMakeContext:
    case RequestCode::kLinkContext:
    case RequestCode::kRemoveName:
    case RequestCode::kRenameName:
      return true;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// The name mapping procedure (paper section 5.4)
// ---------------------------------------------------------------------------

V_BORROWS_SPAN
sim::Co<void> CsnhServer::handle_csname(ipc::Process& self,
                                        ipc::Envelope& env) {
  // 1. Fetch the name bytes from the (possibly distant) original sender's
  //    segment.  This cost is why remote Opens are more expensive than a
  //    bare remote transaction (section 6).
  const std::uint16_t name_len = msg::cs::name_length(env.request);
  if (name_len > kMaxNameLength) {
    reply_csname(self, env, msg::make_reply(ReplyCode::kBadArgs));
    co_return;
  }
  std::string_view name;
  if (name_len > 0) {
    // Fetch-once: the first server on the chain pays the host-side copy
    // (or borrows the sender's segment outright when it is local); every
    // later hop finds the bytes already attached to the envelope.  The
    // simulated transfer delay is charged at every hop either way.
    auto fetched = co_await self.fetch_name(env, name_len);
    if (!fetched.ok()) {
      if (fetched.code() == ReplyCode::kNoReply) {
        // Sender vanished; nobody to answer.  Settle the lint ledger: this
        // silence is deliberate, not a lost reply.
        self.domain().lint().note_unanswered(pid_.raw, env.sender.raw);
        co_return;
      }
      // e.g. the claimed name length exceeds the sender's segment.
      reply_csname(self, env, msg::make_reply(fetched.code()));
      co_return;
    }
    name = fetched.value();
  }
  co_await self.compute(parse_cost(self, name));

  // 2. Initialize CurrentContext from the request (the server-pid half of
  //    the context is implicit: the message arrived here).
  std::size_t index = msg::cs::name_index(env.request);
  if (index > name.size()) {
    reply_csname(self, env, msg::make_reply(ReplyCode::kBadArgs));
    co_return;
  }
  ContextId ctx = translate_context(msg::cs::context_id(env.request));
  if (!context_valid(ctx)) {
    reply_csname(self, env, msg::make_reply(ReplyCode::kInvalidContext));
    co_return;
  }
  // Validated caching (PROTOCOL.md 11): a client that learned this context
  // through a binding hint may quote the generation it expects.  If the
  // name space changed since (any gated mutation bumps the generation), we
  // answer kStaleContext INSTEAD of interpreting against a name space the
  // client no longer means — the §2.2 silent-wrong-answer, made loud.
  if (msg::cs::has_expected_generation(env.request) &&
      msg::cs::expected_generation(env.request) !=
          validation_generation(ctx)) {
    cached_counter(self, m_stale_context_, "stale_context").inc();
    reply_csname(self, env, msg::make_reply(ReplyCode::kStaleContext));
    co_return;
  }
  const ContextId entry_ctx = ctx;  ///< context the sender addressed here

  // 3. Interpret components left to right, updating CurrentContext; when a
  //    component names a context on another server, rewrite the standard
  //    fields and forward the request there.
  const std::uint16_t code = env.request.code();
  const bool stop_before_last = defines_leaf(code);
  auto last_kind = LookupResult::Kind::kLocalContext;  // state of 'ctx'
  for (;;) {
    std::size_t next = 0;
    const std::string_view component = parse_component(name, index, next);
    if (component.empty()) break;  // whole name consumed: leaf is empty
    if (stop_before_last) {
      std::size_t after = 0;
      if (parse_component(name, next, after).empty()) break;  // last: define
    }
    co_await self.compute(self.params().per_component_parse);
    const LookupResult found = co_await lookup(self, ctx, component);
    last_kind = found.kind;
    if (found.kind == LookupResult::Kind::kLocalContext) {
      ctx = found.context;
      index = next;
      continue;
    }
    if (found.kind == LookupResult::Kind::kRemoteContext ||
        found.kind == LookupResult::Kind::kGroupContext) {
      // Cross-server pointer graphs may contain cycles (section 5.8 allows
      // arbitrary directed graphs); bound the traversal so interpretation
      // always terminates with a clean error instead of orbiting forever.
      const auto hops = msg::cs::forward_count(env.request);
      if (hops >= msg::cs::kMaxForwardHops) {
        reply_csname(self, env, msg::make_reply(ReplyCode::kForwardLoop));
        co_return;
      }
      msg::cs::set_forward_count(env.request,
                                 static_cast<std::uint8_t>(hops + 1));
      msg::cs::set_name_index(env.request, static_cast<std::uint16_t>(next));
      // An expected generation applies to the context the CLIENT addressed
      // (already validated above, on this server); it says nothing about
      // downstream contexts, so it must not travel with the forward.
      if (msg::cs::has_expected_generation(env.request)) {
        msg::cs::clear_expected_generation(env.request);
      }
      // First forward of this request: record where interpretation STARTED
      // (simulation extra, PROTOCOL.md 11).  The final server echoes this
      // origin binding in its reply hint, so the client can tie the
      // terminal binding to the entry it resolved through — and notice,
      // via the generation, when that entry's table has since changed.
      if (!env.origin.valid()) {
        env.origin = ipc::BindingHint{pid_.raw, entry_ctx,
                                      generation(entry_ctx), 0};
      }
      cached_counter(self, m_forwarded_, "forwarded").inc();
      if (found.kind == LookupResult::Kind::kGroupContext) {
        // Section 7: the context is implemented by a group of servers; the
        // request is multicast and the first member to answer wins.
        msg::cs::set_context_id(env.request, found.context);
        // Recovery probe (V-fault): members that cannot serve it stay
        // silent, so an error from a wrong member cannot win the race.
        if (found.probe) msg::cs::set_recovery_probe(env.request);
        self.forward_to_group(env, found.group);
      } else {
        msg::cs::set_context_id(env.request, found.remote.context);
        self.forward(env, found.remote.server);
      }
      co_return;  // the next server picks up where we stopped
    }
    break;  // kMissing or kObject: interpretation stops here
  }

  // 4. What remains is the leaf (zero or one component); a deeper remainder
  //    means the path ran through a non-context.
  std::size_t next = 0;
  const std::string_view leaf = parse_component(name, index, next);
  std::size_t after = 0;
  if (!parse_component(name, next, after).empty()) {
    const auto why = last_kind == LookupResult::Kind::kObject
                         ? ReplyCode::kNotAContext
                         : ReplyCode::kNotFound;
    reply_csname(self, env, msg::make_reply(why));
    co_return;
  }

  // Interpretation terminated at this server: record how many Forward hops
  // the request took to get here (0 = answered by the first server).
  cached_hist(self, m_hops_, "hops")
      .record(static_cast<double>(msg::cs::forward_count(env.request)));

  // 5. Dispatch the operation against (ctx, leaf).  Mutating operations
  //    first acquire the (ctx, leaf) gate so concurrent team workers apply
  //    them one at a time, in FIFO grant order; read-only operations skip
  //    the gate and run fully parallel — they never build a lock (no key
  //    copy, no gate lookup on release).  Held until co_return (the lock
  //    is released by ~GateLock when this frame unwinds, after the reply).
  std::optional<GateLock> gate;
  if (mutates_name(code, msg::cs::mode(env.request))) {
    GateLock& lock = gate.emplace(*this, self.domain(), self.fiber_state(),
                                  GateKey{ctx, std::string(leaf)}, self.pid());
    co_await lock;
  }
  Message reply;
  switch (code) {
    case RequestCode::kMapContextName: {
      if (!leaf.empty()) {
        reply = msg::make_reply(last_kind == LookupResult::Kind::kObject
                                    ? ReplyCode::kNotAContext
                                    : ReplyCode::kNotFound);
        break;
      }
      reply = msg::make_reply(ReplyCode::kOk);
      wire::set_map_reply(reply, ContextPair{pid_, ctx});
      break;
    }
    case RequestCode::kQueryName:
      reply = co_await do_query(self, env, ctx, leaf);
      break;
    case RequestCode::kModifyName:
      reply = co_await do_modify(self, env, ctx, leaf, name.size());
      break;
    case RequestCode::kRemoveName:
      reply = msg::make_reply(co_await remove(self, ctx, leaf));
      break;
    case RequestCode::kRenameName:
      reply = co_await do_rename(self, env, ctx, leaf, name.size());
      break;
    case RequestCode::kCreateName:
      reply = msg::make_reply(co_await create_object(
          self, ctx, leaf, msg::cs::mode(env.request)));
      break;
    case RequestCode::kMakeContext:
      reply = msg::make_reply(co_await make_context(self, ctx, leaf));
      break;
    case RequestCode::kLinkContext: {
      const ContextPair target{
          ipc::ProcessId{env.request.u32(wire::kOffLinkServerPid)},
          env.request.u32(wire::kOffLinkContextId)};
      reply = msg::make_reply(co_await link_context(self, ctx, leaf, target));
      break;
    }
    case RequestCode::kAddContextName: {
      const std::uint16_t flags = env.request.u16(wire::kOffAddFlags);
      ContextPair target{
          ipc::ProcessId{env.request.u32(wire::kOffAddServerPid)},
          env.request.u32(wire::kOffAddContextId)};
      const auto service =
          (flags & wire::kAddFlagLogical) != 0
              ? static_cast<ipc::ServiceId>(
                    env.request.u16(wire::kOffAddService))
              : ipc::ServiceId::kNone;
      ipc::GroupId group = 0;
      if ((flags & wire::kAddFlagGroup) != 0) {
        group = env.request.u32(wire::kOffAddServerPid);
        target.server = ipc::ProcessId::invalid();
      }
      reply = msg::make_reply(co_await add_context_name(
          self, ctx, leaf, target, service, group));
      break;
    }
    case RequestCode::kDeleteContextName:
      reply = msg::make_reply(co_await delete_context_name(self, ctx, leaf));
      break;
    case RequestCode::kCreateInstance:
      reply = co_await do_open(self, env, ctx, leaf,
                               msg::cs::mode(env.request));
      break;
    default:
      reply = co_await handle_custom_csname(self, env, ctx, leaf, name);
      break;
  }
  // A successful gated mutation changed the name space under ctx: advance
  // its generation (gate still held, so the bump is race-detector clean and
  // ordered with the mutation it records).
  if (reply.code() == static_cast<std::uint16_t>(ReplyCode::kOk) &&
      mutates_name(code, msg::cs::mode(env.request))) {
    bump_generation(self, ctx);
  }
  // Piggyback the binding hint on success: interpretation ended HERE, in
  // ctx, with the leaf starting at `index` — everything a client needs to
  // come straight back next time, stamped with the generation that lets us
  // refuse if the name space moves on (PROTOCOL.md 11; costs nothing).
  if (reply.code() == static_cast<std::uint16_t>(ReplyCode::kOk)) {
    const ipc::BindingHint hint{pid_.raw, ctx, generation(ctx),
                                static_cast<std::uint16_t>(index)};
    self.reply_with_hint(env, reply, hint);
  } else {
    reply_csname(self, env, reply);
  }
}

// ---------------------------------------------------------------------------
// Standard operation bodies
// ---------------------------------------------------------------------------

V_BORROWS_SPAN
sim::Co<msg::Message> CsnhServer::do_query(ipc::Process& self,
                                           ipc::Envelope& env, ContextId ctx,
                                           std::string_view leaf) {
  auto desc = co_await describe(self, ctx, leaf);
  if (!desc.ok()) co_return msg::make_reply(desc.code());
  co_await self.compute(self.params().descriptor_fabricate);
  std::array<std::byte, ObjectDescriptor::kWireSize> record{};
  desc.value().encode(record);
  auto moved = co_await self.move_to(env, record);
  if (!moved.ok()) co_return msg::make_reply(moved.code());
  Message reply = msg::make_reply(ReplyCode::kOk);
  reply.set_u16(wire::kOffQueryType,
                static_cast<std::uint16_t>(desc.value().type));
  co_return reply;
}

V_BORROWS_SPAN
sim::Co<msg::Message> CsnhServer::do_modify(ipc::Process& self,
                                            ipc::Envelope& env,
                                            ContextId ctx,
                                            std::string_view leaf,
                                            std::size_t payload_offset) {
  std::array<std::byte, ObjectDescriptor::kWireSize> record{};
  auto fetched = co_await self.move_from(env, record, payload_offset);
  if (!fetched.ok()) co_return msg::make_reply(fetched.code());
  auto desc = ObjectDescriptor::decode(record);
  if (!desc.ok()) co_return msg::make_reply(desc.code());
  // vlint: allow(gate-generation): handle_csname bumps the generation after a successful mutating dispatch.
  co_return msg::make_reply(co_await modify(self, ctx, leaf, desc.value()));
}

V_BORROWS_SPAN
sim::Co<msg::Message> CsnhServer::do_rename(ipc::Process& self,
                                            ipc::Envelope& env,
                                            ContextId ctx,
                                            std::string_view leaf,
                                            std::size_t payload_offset) {
  const std::uint16_t new_len = env.request.u16(wire::kOffRenameNewLength);
  if (new_len == 0 || new_len > kMaxNameLength) {
    co_return msg::make_reply(ReplyCode::kBadArgs);
  }
  std::string new_name(new_len, '\0');
  auto fetched = co_await self.move_from(
      env, std::as_writable_bytes(std::span(new_name)),
      payload_offset);
  if (!fetched.ok()) co_return msg::make_reply(fetched.code());
  if (!is_simple_leaf(new_name)) {
    // Cross-context renames are not part of the standard protocol.
    co_return msg::make_reply(ReplyCode::kBadArgs);
  }
  // vlint: allow(gate-generation): handle_csname bumps the generation after a successful mutating dispatch.
  co_return msg::make_reply(co_await rename(self, ctx, leaf, new_name));
}

V_BORROWS_SPAN
sim::Co<msg::Message> CsnhServer::do_open(ipc::Process& self,
                                          ipc::Envelope& /*env*/,
                                          ContextId ctx,
                                          std::string_view leaf,
                                          std::uint16_t mode) {
  std::unique_ptr<io::InstanceObject> object;
  if (leaf.empty() || (mode & wire::kOpenDirectory) != 0) {
    // Opening a context itself opens its context directory (section 5.6).
    std::string_view pattern;
    if (!leaf.empty()) {
      if ((mode & wire::kOpenPattern) != 0) {
        pattern = leaf;  // section 5.6 extension: filter by glob
      } else {
        // A leaf only survives the mapping walk when it is NOT a local
        // context, so a named directory-mode open here cannot succeed.
        co_return msg::make_reply(ReplyCode::kNotFound);
      }
    }
    auto entries = co_await list_context(self, ctx);
    if (!entries.ok()) co_return msg::make_reply(entries.code());
    // Matching is cheap; fabrication is charged only for SHIPPED records —
    // exactly the saving the paper's pattern extension is after.
    if (!pattern.empty()) {
      std::erase_if(entries.value(), [pattern](const ObjectDescriptor& d) {
        return !glob_match(pattern, d.name);
      });
    }
    co_await self.compute(self.params().descriptor_fabricate *
                          static_cast<sim::SimDuration>(
                              entries.value().size()));
    std::vector<std::byte> snapshot(entries.value().size() *
                                    ObjectDescriptor::kWireSize);
    for (std::size_t i = 0; i < entries.value().size(); ++i) {
      entries.value()[i].encode(std::span(snapshot).subspan(
          i * ObjectDescriptor::kWireSize, ObjectDescriptor::kWireSize));
    }
    object = std::make_unique<ContextDirectoryInstance>(
        ctx, std::move(snapshot),
        [this](ipc::Process& p, ContextId c, const ObjectDescriptor& d)
            -> sim::Co<ReplyCode> { return gated_modify(p, c, d); });
  } else {
    auto opened = co_await open_object(self, ctx, leaf, mode);
    if (!opened.ok()) co_return msg::make_reply(opened.code());
    object = opened.take();
  }
  const io::InstanceInfo info = object->info();
  io::InstanceId id;
  {
    chk::AccessGuard guard(self, instances_cell_,
                           chk::AccessGuard::Mode::kWrite);
    id = instances_.add(std::move(object));
  }
  Message reply = msg::make_reply(ReplyCode::kOk);
  reply.set_u16(io::kOffCreateInstance, id);
  reply.set_u32(io::kOffCreateSize, info.size_bytes);
  reply.set_u16(io::kOffCreateBlock, info.block_bytes);
  reply.set_u16(io::kOffCreateFlags, info.flags);
  reply.set_u32(io::kOffCreateServerPid, pid_.raw);
  reply.set_u32(io::kOffCreateContextId, ctx);
  co_return reply;
}

sim::Co<ReplyCode> CsnhServer::gated_modify(ipc::Process& self, ContextId ctx,
                                            ObjectDescriptor desc) {
  // "Writing a description record has the same effect as invoking the
  // modification operation on the named object" (section 5.6) — so it must
  // take the same (ctx, leaf) gate the direct kModifyName path takes.
  GateLock gate(*this, self.domain(), self.fiber_state(),
                GateKey{ctx, desc.name}, self.pid());
  co_await gate;
  const ReplyCode code = co_await modify(self, ctx, desc.name, desc);
  if (code == ReplyCode::kOk) bump_generation(self, ctx);
  co_return code;
}

void CsnhServer::bump_generation(ipc::Process& self, ContextId ctx) {
  generations_[ctx] = self.domain().next_name_generation();
}

void CsnhServer::note_name_write(ipc::Process& self, ContextId ctx,
                                 std::string_view leaf) {
  const auto it = gates_.find(GateKey{ctx, std::string(leaf)});
  const Gate* gate = it == gates_.end() ? nullptr : &it->second;
  if (gate != nullptr && gate->holder == self.pid()) return;
  ipc::Domain& dom = self.domain();
  std::ostringstream out;
  out << "race detector: ungated (ctx,leaf) mutation on server '"
      << dom.process_name(pid_) << "': process '"
      << dom.process_name(self.pid()) << "' (pid " << self.pid().raw
      << ") mutated (" << ctx << ", \"" << leaf << "\") at t="
      << dom.loop().now();
  if (gate != nullptr && gate->holder.valid()) {
    out << " while process '" << dom.process_name(gate->holder) << "' (pid "
        << gate->holder.raw << ") has held the mutation gate since t="
        << gate->held_since;
  } else {
    out << " without any process holding the mutation gate";
  }
  throw chk::RaceError(out.str());
}

sim::Co<msg::Message> CsnhServer::do_inverse_name(ipc::Process& self,
                                                  ipc::Envelope& env,
                                                  Result<std::string> name) {
  if (!name.ok()) co_return msg::make_reply(name.code());
  const std::string& text = name.value();
  if (!text.empty()) {
    auto moved = co_await self.move_to(
        env, std::as_bytes(std::span(text.data(), text.size())));
    if (!moved.ok()) co_return msg::make_reply(moved.code());
  }
  Message reply = msg::make_reply(ReplyCode::kOk);
  reply.set_u16(wire::kOffInvNameLength,
                static_cast<std::uint16_t>(text.size()));
  co_return reply;
}

// ---------------------------------------------------------------------------
// I/O protocol instance operations
// ---------------------------------------------------------------------------

V_BORROWS_SPAN
sim::Co<std::optional<msg::Message>> CsnhServer::handle_instance_op(
    ipc::Process& self, ipc::Envelope& env) {
  const auto id =
      static_cast<io::InstanceId>(env.request.u16(io::kOffInstance));
  // Hold a shared reference across the co_awaits below: a concurrent team
  // worker may Release this id mid-operation (the table entry goes away;
  // the object must not).  The table itself is only borrowed momentarily —
  // the AccessGuard would flag a lookup held across a suspension point.
  std::shared_ptr<io::InstanceObject> object;
  {
    chk::AccessGuard guard(self, instances_cell_,
                           chk::AccessGuard::Mode::kRead);
    object = instances_.find(id);
  }
  switch (env.request.code()) {
    case RequestCode::kQueryInstance: {
      if (object == nullptr) {
        co_return msg::make_reply(ReplyCode::kInvalidInstance);
      }
      const auto info = object->info();
      Message reply = msg::make_reply(ReplyCode::kOk);
      reply.set_u16(io::kOffCreateInstance, id);
      reply.set_u32(io::kOffCreateSize, info.size_bytes);
      reply.set_u16(io::kOffCreateBlock, info.block_bytes);
      reply.set_u16(io::kOffCreateFlags, info.flags);
      co_return reply;
    }
    case RequestCode::kReadInstance: {
      if (object == nullptr) {
        co_return msg::make_reply(ReplyCode::kInvalidInstance);
      }
      const auto block = env.request.u32(io::kOffBlock);
      const auto info = object->info();
      std::uint16_t count = env.request.u16(io::kOffByteCount);
      std::vector<std::byte> buffer;
      if (count == io::kBulkRead) {
        // Bulk path: gather from `block` to EOF, then ONE MoveTo for the
        // whole payload (the V program-loading transfer shape).
        std::vector<std::byte> block_buf(info.block_bytes);
        for (std::uint32_t b = block;; ++b) {
          auto got = co_await object->read_block(self, b, block_buf);
          if (!got.ok()) {
            if (got.code() == ReplyCode::kEndOfFile) break;
            co_return msg::make_reply(got.code());
          }
          buffer.insert(buffer.end(), block_buf.begin(),
                        block_buf.begin() +
                            static_cast<std::ptrdiff_t>(got.value()));
          if (got.value() < block_buf.size()) break;
        }
      } else {
        if (count == 0 || count > info.block_bytes) count = info.block_bytes;
        buffer.resize(count);
        auto got = co_await object->read_block(self, block, buffer);
        if (!got.ok()) co_return msg::make_reply(got.code());
        buffer.resize(got.value());
      }
      if (!buffer.empty()) {
        auto moved = co_await self.move_to(env, buffer);
        if (!moved.ok()) co_return msg::make_reply(moved.code());
      }
      Message reply = msg::make_reply(ReplyCode::kOk);
      reply.set_u16(io::kOffXferCount, static_cast<std::uint16_t>(std::min(
                                           buffer.size(), std::size_t{0xfffe})));
      reply.set_u32(io::kOffXferCountLong,
                    static_cast<std::uint32_t>(buffer.size()));
      co_return reply;
    }
    case RequestCode::kWriteInstance: {
      if (object == nullptr) {
        co_return msg::make_reply(ReplyCode::kInvalidInstance);
      }
      const auto block = env.request.u32(io::kOffBlock);
      const std::uint16_t count = env.request.u16(io::kOffByteCount);
      if (count == 0 || count > object->info().block_bytes) {
        co_return msg::make_reply(ReplyCode::kBadArgs);
      }
      std::vector<std::byte> buffer(count);
      auto fetched = co_await self.move_from(env, buffer, 0);
      if (!fetched.ok()) co_return msg::make_reply(fetched.code());
      auto wrote = co_await object->write_block(self, block, buffer);
      if (!wrote.ok()) co_return msg::make_reply(wrote.code());
      Message reply = msg::make_reply(ReplyCode::kOk);
      reply.set_u16(io::kOffXferCount,
                    static_cast<std::uint16_t>(wrote.value()));
      co_return reply;
    }
    case RequestCode::kReleaseInstance: {
      bool released = false;
      {
        chk::AccessGuard guard(self, instances_cell_,
                               chk::AccessGuard::Mode::kWrite);
        released = instances_.release(self, id);
      }
      co_return msg::make_reply(released ? ReplyCode::kOk
                                         : ReplyCode::kInvalidInstance);
    }
    default:
      co_return msg::make_reply(ReplyCode::kIllegalRequest);
  }
}

// ---------------------------------------------------------------------------
// Default hook implementations
// ---------------------------------------------------------------------------

sim::Co<void> CsnhServer::on_start(ipc::Process& /*self*/) { co_return; }

std::string_view CsnhServer::parse_component(std::string_view name,
                                             std::size_t index,
                                             std::size_t& next) {
  return naming::next_component(name, index, next);
}

sim::SimDuration CsnhServer::parse_cost(ipc::Process& self,
                                        std::string_view /*name*/) {
  return self.params().csname_parse;
}

sim::Co<Result<ObjectDescriptor>> CsnhServer::describe(ipc::Process& /*self*/,
                                                       ContextId ctx,
                                                       std::string_view leaf) {
  if (!leaf.empty()) co_return ReplyCode::kNotFound;
  ObjectDescriptor desc;
  desc.type = DescriptorType::kContext;
  desc.server_pid = pid_.raw;
  desc.context_id = ctx;
  if (auto name = context_to_name(ctx); name.ok()) desc.name = name.value();
  co_return desc;
}

V_GATED_MUTATION
sim::Co<ReplyCode> CsnhServer::modify(ipc::Process&, ContextId,
                                      std::string_view,
                                      const ObjectDescriptor&) {
  co_return ReplyCode::kIllegalRequest;
}

V_GATED_MUTATION
sim::Co<ReplyCode> CsnhServer::remove(ipc::Process&, ContextId,
                                      std::string_view) {
  co_return ReplyCode::kIllegalRequest;
}

V_GATED_MUTATION
sim::Co<ReplyCode> CsnhServer::rename(ipc::Process&, ContextId,
                                      std::string_view, std::string_view) {
  co_return ReplyCode::kIllegalRequest;
}

V_GATED_MUTATION
sim::Co<ReplyCode> CsnhServer::create_object(ipc::Process&, ContextId,
                                             std::string_view,
                                             std::uint16_t) {
  co_return ReplyCode::kIllegalRequest;
}

V_GATED_MUTATION
sim::Co<ReplyCode> CsnhServer::make_context(ipc::Process&, ContextId,
                                            std::string_view) {
  co_return ReplyCode::kIllegalRequest;
}

V_GATED_MUTATION
sim::Co<ReplyCode> CsnhServer::link_context(ipc::Process&, ContextId,
                                            std::string_view, ContextPair) {
  co_return ReplyCode::kIllegalRequest;
}

V_GATED_MUTATION
sim::Co<ReplyCode> CsnhServer::add_context_name(ipc::Process&, ContextId,
                                                std::string_view, ContextPair,
                                                ipc::ServiceId,
                                                ipc::GroupId) {
  co_return ReplyCode::kIllegalRequest;
}

V_GATED_MUTATION
sim::Co<ReplyCode> CsnhServer::delete_context_name(ipc::Process&, ContextId,
                                                   std::string_view) {
  co_return ReplyCode::kIllegalRequest;
}

sim::Co<Result<std::unique_ptr<io::InstanceObject>>> CsnhServer::open_object(
    ipc::Process&, ContextId, std::string_view, std::uint16_t) {
  co_return ReplyCode::kIllegalRequest;
}

sim::Co<Result<std::vector<ObjectDescriptor>>> CsnhServer::list_context(
    ipc::Process&, ContextId) {
  co_return ReplyCode::kIllegalRequest;
}

Result<std::string> CsnhServer::context_to_name(ContextId) {
  return ReplyCode::kNoInverse;
}

Result<std::string> CsnhServer::instance_to_name(io::InstanceId) {
  return ReplyCode::kNoInverse;
}

sim::Co<msg::Message> CsnhServer::handle_custom_csname(ipc::Process&,
                                                       ipc::Envelope&,
                                                       ContextId,
                                                       std::string_view,
                                                       std::string_view) {
  co_return msg::make_reply(ReplyCode::kIllegalRequest);
}

sim::Co<msg::Message> CsnhServer::handle_custom(ipc::Process&,
                                                ipc::Envelope&) {
  co_return msg::make_reply(ReplyCode::kIllegalRequest);
}

// ---------------------------------------------------------------------------
// V-trace metric helpers
// ---------------------------------------------------------------------------

obs::Counter& CsnhServer::req_counter(ipc::Process& self,
                                      std::uint16_t code) {
  if (auto it = req_counters_.find(code); it != req_counters_.end()) {
    return *it->second;
  }
  // First packet with this code: build the "req.<label>" key once and pin
  // the registry entry.  Every later packet is one FlatMap probe + inc.
  std::string key("req.");
  key.append(obs::opcode_label(code));
  obs::Counter& counter = self.domain().metrics().counter(metrics_scope_, key);
  req_counters_[code] = &counter;
  return counter;
}

void CsnhServer::reset_metric_handles() {
  m_requests_ = nullptr;
  m_forwarded_ = nullptr;
  m_sheds_ = nullptr;
  m_stale_context_ = nullptr;
  m_queue_depth_ = nullptr;
  m_hops_ = nullptr;
  req_counters_.clear();
}

void CsnhServer::metric_inc(ipc::Process& self, std::string_view name,
                            std::uint64_t n) {
  self.domain().metrics().counter(metrics_scope_, name).inc(n);
}

void CsnhServer::metric_gauge(ipc::Process& self, std::string_view name,
                              std::int64_t value) {
  self.domain().metrics().gauge(metrics_scope_, name).set(value);
}

void CsnhServer::metric_hist(ipc::Process& self, std::string_view name,
                             double value) {
  self.domain().metrics().histogram(metrics_scope_, name).record(value);
}

}  // namespace v::naming
