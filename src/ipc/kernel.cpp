#include "ipc/kernel.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "msg/csname.hpp"
#include "sim/frame_pool.hpp"
#include "common/annotate.hpp"

namespace v::ipc {

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

sim::SimTime Process::now() const noexcept { return domain_->now(); }

const CalibrationParams& Process::params() const noexcept {
  return domain_->params();
}

sim::DelayAwaiter Process::delay(sim::SimDuration d) const {
  return sim::DelayAwaiter(domain_->loop(), d, fiber_state());
}

V_HOT_PATH
Envelope Process::open_transaction(const msg::Message& request,
                                   Segments segments, ProcessId holder,
                                   std::uint32_t peer,
                                   std::string_view span_name) {
  auto& rec = record();
  V_CHECK(!rec.awaiting_reply);  // V processes have one outstanding send
  rec.awaiting_reply = true;
  rec.blocked_on = holder;
  rec.exposed = segments;
  ++rec.send_seq;
  Envelope env{pid_, request, segments, {}, {}, {},
               static_cast<std::uint32_t>(rec.send_seq), {}};
  rec.send_started_at = domain_->now();
  rec.last_send_code = request.code();
  // Head-based sampling: the keep/skip decision is made HERE, once per
  // transaction, and rides the envelope: forwarded requests are traced
  // end-to-end or not at all.  Recovery probes (including svc::Runtime's
  // multicast rebinding) are always kept: they only exist because
  // something already went wrong.
  if (auto& tr = domain_->tracer();
      tr.active() && (msg::cs::is_recovery_probe(request) ||
                      tr.sampler().decide(request.code()))) {
    domain_->open_root_span(env, span_name, {}, rec.name);
  }
  domain_->flight_.record(host_id(), obs::FlightKind::kSend, domain_->now(),
                          pid_.raw, peer, request.code(), rec.send_seq,
                          env.trace.sampled() ? 1 : 0);
  domain_->arm_watchdog();
  return env;
}

V_HOT_PATH
sim::Co<msg::Message> Process::send(msg::Message request, ProcessId dest,
                                    Segments segments) {
  Envelope env = open_transaction(request, segments, dest, dest.raw, "send ");
  domain_->count_request(host_id(), dest);
  // Loss masking: under a plan whose links can fault, every send is
  // covered, even when the FIRST hop is local (never faulted) — the
  // receptionist may forward the request across the wire, and the lost
  // forward or lost reply is then masked by retransmitting to the first
  // hop, whose duplicate table re-drives the stored forward.  A lossless
  // plan loses nothing to mask: no timer, and (as with no plan) a live
  // server is never timed out; kNoReply comes from crash detection only.
  if (domain_->loss_masking_) {
    const fault::RetryPolicy& policy = domain_->fault_plan_->retry();
    domain_->schedule_retransmit(env, dest, policy.initial_timeout,
                                 policy.budget);
  }
  domain_->deliver(host_id(), std::move(env), dest);
  auto& rec = record();
  co_await sim::ParkAwaiter(rec.reply_waker, rec.fiber_state);
  co_return rec.reply;
}

sim::Co<msg::Message> Process::send_to_group(msg::Message request,
                                             GroupId group,
                                             Segments segments) {
  // No single holder: the group timeout covers the blocked sender.
  const Envelope proto =
      open_transaction(request, segments, ProcessId::invalid(),
                       static_cast<std::uint32_t>(group), "send-group ");
  const std::size_t delivered = domain_->deliver_to_group(
      host_id(), proto, group, /*skip=*/pid_, /*count=*/false);
  // First reply wins; this timeout fires only if nothing answered this send.
  domain_->schedule_timeout(
      pid_, proto.txn_seq,
      delivered == 0 ? params().getpid_local : params().group_timeout);
  auto& rec = record();
  co_await sim::ParkAwaiter(rec.reply_waker, rec.fiber_state);
  co_return rec.reply;
}

sim::Co<Envelope> Process::receive() {
  auto& rec = record();
  while (rec.mbox_head == detail::kNilEnv) {
    rec.waiting_receive = true;
    co_await sim::ParkAwaiter(rec.recv_waker, rec.fiber_state);
  }
  const std::uint32_t slot = rec.mbox_head;
  auto& node = domain_->env_node(slot);
  rec.mbox_head = node.next;
  if (rec.mbox_head == detail::kNilEnv) rec.mbox_tail = detail::kNilEnv;
  Envelope env = std::move(node.env);
  domain_->env_release(slot);
  co_return env;
}

V_HOT_PATH
void Process::reply(const Envelope& env, const msg::Message& reply_msg) {
  domain_->deliver_reply(host_id(), reply_msg, env, pid_, {}, {});
}

V_HOT_PATH
void Process::reply_with_hint(const Envelope& env,
                              const msg::Message& reply_msg,
                              const BindingHint& hint) {
  domain_->deliver_reply(host_id(), reply_msg, env, pid_, hint, env.origin);
}

BindingHint Process::last_binding_hint() const { return record().reply_hint; }

BindingHint Process::last_origin_hint() const { return record().reply_origin; }

void Process::forward(const Envelope& env, ProcessId new_dest) {
  // "It appears as though the sender originally sent to the third process."
  domain_->note_forward(pid_, env, new_dest, /*group=*/0);
  domain_->count_request(host_id(), new_dest);
  // Copying env materializes its name: the forwarded envelope carries an
  // OWNED copy of any fetched name bytes (the fetch-once attachment).
  domain_->deliver(host_id(), env, new_dest);
}

void Process::forward_to_group(const Envelope& env, GroupId group) {
  domain_->note_forward(pid_, env, ProcessId::invalid(), group);
  const std::size_t delivered = domain_->deliver_to_group(
      host_id(), env, group, /*skip=*/ProcessId::invalid(), /*count=*/true);
  // Guard the blocked sender against a silent group: if the forwarded
  // transaction is still outstanding after the timeout, answer kTimeout.
  domain_->schedule_timeout(
      env.sender, env.txn_seq,
      delivered == 0 ? params().local_hop : params().group_timeout);
}

V_BORROWS_SPAN
sim::Co<Result<std::size_t>> Process::move_from(const Envelope& env,
                                                std::span<std::byte> dest,
                                                std::size_t offset) {
  ++domain_->stats_.moves;
  domain_->stats_.bytes_moved += dest.size();
  const bool local = env.sender.local_to(host_id());
  co_await delay(params().move_from_cost(dest.size(), local));
  auto* srec = domain_->txn_sender(env);  // validate after the transfer time
  if (srec == nullptr) co_return ReplyCode::kNoReply;
  // The sender's logical read segment is the pair (read, read2) addressed
  // as one contiguous range; stitch the copy across the seam.
  const Segments& seg = srec->exposed;
  if (offset + dest.size() > seg.read_size()) co_return ReplyCode::kBadArgs;
  std::size_t copied = 0;
  if (offset < seg.read.size()) {
    copied = std::min(dest.size(), seg.read.size() - offset);
    if (copied != 0) {
      std::memcpy(dest.data(), seg.read.data() + offset, copied);
    }
  }
  if (copied < dest.size()) {
    const std::size_t off2 = offset + copied - seg.read.size();
    std::memcpy(dest.data() + copied, seg.read2.data() + off2,
                dest.size() - copied);
  }
  co_return dest.size();
}

V_BORROWS_SPAN
sim::Co<Result<std::string_view>> Process::fetch_name(
    Envelope& env, std::uint16_t name_len) {
  // Bit-identity contract: same delay, same schedule position and same
  // post-delay validation as the move_from every hop used to issue.  Only
  // the host-side copy (and the moves/bytes_moved counters, which track
  // real transfers) are elided on attached and borrowed reads.
  const bool local = env.sender.local_to(host_id());
  co_await delay(params().move_from_cost(name_len, local));
  auto* srec = domain_->txn_sender(env);  // validate after the transfer time
  if (srec == nullptr) co_return ReplyCode::kNoReply;
  if (env.name.size() >= name_len) {
    // A server earlier in the forward chain already fetched (and a
    // forwarding copy attached) the bytes: fetch-once pays off here.
    co_return std::string_view(env.name.data(), name_len);
  }
  const Segments& seg = srec->exposed;
  if (name_len > seg.read_size()) co_return ReplyCode::kBadArgs;
  if (local && name_len <= seg.read.size()) {
    // Same-host first fetch: borrow the sender's bytes in place (ledgered;
    // see name_span.hpp).  Zero bytes cross the simulated wire or the host
    // heap.
    env.name.borrow(reinterpret_cast<const char*>(seg.read.data()), name_len,
                    srec->borrow_head);
  } else {
    // Remote (or seam-straddling) first fetch: the one real copy of the
    // transaction — the only place the transfer counters tick.
    ++domain_->stats_.moves;
    domain_->stats_.bytes_moved += name_len;
    char* bytes = env.name.allocate(name_len);
    const std::size_t head = std::min<std::size_t>(name_len, seg.read.size());
    if (head != 0) std::memcpy(bytes, seg.read.data(), head);
    if (name_len > head) {
      std::memcpy(bytes + head, seg.read2.data(), name_len - head);
    }
  }
  co_return std::string_view(env.name.data(), name_len);
}

V_BORROWS_SPAN
sim::Co<Result<std::size_t>> Process::move_to(const Envelope& env,
                                              std::span<const std::byte> src,
                                              std::size_t offset) {
  ++domain_->stats_.moves;
  domain_->stats_.bytes_moved += src.size();
  const bool local = env.sender.local_to(host_id());
  co_await delay(params().move_to_cost(src.size(), local));
  auto* drec = domain_->txn_sender(env);
  if (drec == nullptr) co_return ReplyCode::kNoReply;
  const auto seg = drec->exposed.write;
  if (offset + src.size() > seg.size()) co_return ReplyCode::kBadArgs;
  if (!src.empty()) {
    std::memcpy(seg.data() + offset, src.data(), src.size());
  }
  co_return src.size();
}

void Process::set_pid(ServiceId service, ProcessId pid, Scope scope) {
  auto& hosts = domain_->hosts_;
  const HostId target = pid.logical_host();
  V_CHECK(target >= 1 && target <= hosts.size());
  hosts[target - 1]->register_service(service, pid, scope);
}

sim::Co<ProcessId> Process::get_pid(ServiceId service, Scope scope) {
  co_await delay(params().getpid_local);
  auto& hosts = domain_->hosts_;
  const HostId here = host_id();
  if (scope != Scope::kRemote) {
    const ProcessId p = hosts[here - 1]->lookup_local(service);
    if (p.valid() && domain_->process_alive(p)) co_return p;
  }
  if (scope != Scope::kLocal) {
    co_await delay(params().broadcast_query);
    for (const auto& host : hosts) {
      if (host->id() == here || !host->alive()) continue;
      const ProcessId p = host->lookup_remote(service);
      if (p.valid() && domain_->process_alive(p)) co_return p;
    }
  }
  co_return ProcessId::invalid();
}

void Process::join_group(GroupId group) {
  auto& members = domain_->groups_[group];
  for (ProcessId m : members) {
    if (m == pid_) return;
  }
  members.push_back(pid_);
}

void Process::leave_group(GroupId group) {
  auto it = domain_->groups_.find(group);
  if (it == domain_->groups_.end()) return;
  std::erase(it->second, pid_);
}

// ---------------------------------------------------------------------------
// Host
// ---------------------------------------------------------------------------

Host::Host(Domain& domain, HostId id, std::string name)
    : domain_(domain), id_(id), name_(std::move(name)) {
  // Paper section 4.2: "process identifiers are always allocated randomly".
  next_local_pid_ = static_cast<std::uint16_t>(
      domain_.rng().uniform(1, 0xefff));
}

ProcessId Host::spawn(std::string name,
                      std::function<sim::Co<void>(Process)> body) {
  V_CHECK(alive_);
  auto& rec = domain_.create_record(*this, std::move(name));
  Process handle(&domain_, &rec);
  std::string label = rec.name;
  Domain* dom = &domain_;
  rec.body_keepalive = std::move(body);
  rec.fiber.emplace(rec.body_keepalive(handle),
                    [dom, label](std::exception_ptr error) {
    if (error) {
      ++dom->failures_;
      if (dom->first_failure_.empty()) {
        try {
          std::rethrow_exception(error);
        } catch (const std::exception& e) {
          dom->first_failure_ = label + ": " + e.what();
        } catch (...) {
          dom->first_failure_ = label + ": unknown exception";
        }
      }
    }
  });
  // Stamp the fiber with its pid so the ambient context (VLOG prefixes,
  // event-loop profiling) can attribute work to the simulated process.
  rec.fiber->state()->pid = rec.pid.raw;
  rec.fiber_state = rec.fiber->state().get();
  auto* recp = &rec;
  domain_.loop().schedule_after(0, [recp] {
    if (recp->alive && recp->fiber) recp->fiber->start();
  });
  return rec.pid;
}

std::vector<ProcessId> Host::spawn_team(
    const std::string& base, std::size_t count,
    std::function<sim::Co<void>(Process, std::size_t)> body) {
  std::vector<ProcessId> members;
  members.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    members.push_back(spawn(base + "." + std::to_string(i),
                            [body, i](Process p) { return body(p, i); }));
  }
  return members;
}

void Host::crash() {
  if (!alive_) return;
  domain_.flight_.record(id_, obs::FlightKind::kHostDown,
                         domain_.loop().now(), 0, 0, /*code=*/0, 0);
  alive_ = false;
  paused_ = false;
  stash_.clear();  // packets queued behind a pause die with the host
  services_.clear();
  for (auto& rec : domain_.records_) {
    if (rec->host == this && rec->alive) domain_.kill_process(*rec);
  }
  // Sweep: senders anywhere in the domain blocked on a process that just
  // died get a synthesized kNoReply (transport-level failure detection).
  for (auto& rec : domain_.records_) {
    if (rec->alive && rec->awaiting_reply &&
        rec->blocked_on.valid() && rec->blocked_on.logical_host() == id_) {
      domain_.synth_reply(rec->pid, ReplyCode::kNoReply,
                          static_cast<std::uint32_t>(rec->send_seq));
    }
  }
}

void Host::restart() {
  V_CHECK(!alive_);
  alive_ = true;
  domain_.flight_.record(id_, obs::FlightKind::kHostUp,
                         domain_.loop().now(), 0, 0, /*code=*/0, 0);
}

void Host::pause() {
  if (!alive_) return;
  paused_ = true;
  domain_.flight_.record(id_, obs::FlightKind::kHostDown,
                         domain_.loop().now(), 0, 0, /*code=*/1, 0);
}

void Host::resume() {
  if (!paused_) return;
  paused_ = false;
  domain_.flight_.record(id_, obs::FlightKind::kHostUp,
                         domain_.loop().now(), 0, 0, /*code=*/1, 0);
  // Flush in arrival order; each packet lands via a fresh zero-delay event
  // so its guards (staleness, duplicate suppression) run at resume time.
  auto stash = std::move(stash_);
  stash_.clear();
  for (auto& packet : stash) {
    domain_.loop().schedule_after(0, std::move(packet));
  }
}

void Host::stash(sim::EventLoop::Action packet) {
  stash_.push_back(std::move(packet));
}

void Host::register_service(ServiceId service, ProcessId pid, Scope scope) {
  services_[service] = detail::Registration{pid, scope};
}

ProcessId Host::lookup_local(ServiceId service) const {
  auto it = services_.find(service);
  if (it == services_.end()) return ProcessId::invalid();
  if (it->second.scope == Scope::kRemote) return ProcessId::invalid();
  return it->second.pid;
}

ProcessId Host::lookup_remote(ServiceId service) const {
  auto it = services_.find(service);
  if (it == services_.end()) return ProcessId::invalid();
  if (it->second.scope == Scope::kLocal) return ProcessId::invalid();
  return it->second.pid;
}

// ---------------------------------------------------------------------------
// Domain
// ---------------------------------------------------------------------------

Domain::Domain(CalibrationParams params, std::uint64_t seed)
    : params_(params), rng_(seed) {
  // Typical installations run tens of processes; teams multiply that.
  // Reserving up front keeps record creation out of rehash/regrow churn,
  // but stays modest so that cheap throwaway domains (unit tests,
  // micro-benchmarks) don't pay for a big empty bucket array.
  records_.reserve(64);
  by_pid_.reserve(64);
  // Mirror the kernel's own counters into the metrics registry as callback
  // entries, so one snapshot (JSON or a [metrics] Read) covers everything.
  // DomainStats stays the source of truth — existing accessors unchanged.
  auto mirror = [this](const char* scope, const char* name,
                       const std::uint64_t* field) {
    metrics_.register_callback(scope, name, [field] {
      return static_cast<double>(*field);
    });
  };
  mirror("ipc", "messages_sent", &stats_.messages_sent);
  mirror("ipc", "replies_sent", &stats_.replies_sent);
  mirror("ipc", "forwards", &stats_.forwards);
  mirror("ipc", "remote_messages", &stats_.remote_messages);
  mirror("ipc", "moves", &stats_.moves);
  mirror("ipc", "bytes_moved", &stats_.bytes_moved);
  const auto& lc = lint_.counters();
  mirror("lint", "requests_checked", &lc.requests_checked);
  mirror("lint", "replies_checked", &lc.replies_checked);
  mirror("lint", "client_rejects", &lc.client_rejects);
  mirror("lint", "server_violations", &lc.server_violations);
  mirror("lint", "stale_context_forwards", &lc.stale_context_forwards);
  mirror("lint", "invalid_context_requests", &lc.invalid_context_requests);
  metrics_.register_callback("loop", "events_executed", [this] {
    return static_cast<double>(loop_.events_executed());
  });
  metrics_.register_callback("loop", "sim_time_ms", [this] {
    return static_cast<double>(loop_.now()) / 1e6;
  });
  metrics_.register_callback("loop", "wall_ns", [this] {
    return static_cast<double>(loop_.stats().wall_ns);
  });
  metrics_.register_callback("loop", "wall_vs_sim", [this] {
    return loop_.wall_vs_sim();
  });
  mirror("loop", "negative_delay_clamps",
         &loop_.stats().negative_delay_clamps);
  // Scheduler actions (DESIGN.md §4i): the inline/heap split flags any
  // closure that outgrew the Action inline buffer and started allocating
  // per event.
  mirror("loop", "actions_inline", &loop_.stats().actions_inline);
  mirror("loop", "actions_heap", &loop_.stats().actions_heap);
  // Coroutine-frame pool (process-wide, not per-domain: frames recycle
  // across domains in one process — fine for the single-domain runs that
  // read metrics).
  mirror("frames", "recycled", &sim::FramePool::instance().stats().frames_recycled);
  mirror("frames", "fresh", &sim::FramePool::instance().stats().frames_fresh);
  // V-blackbox: every event-loop dispatch becomes a kTimer record in the
  // domain ring (ring 0), so a post-mortem dump shows scheduler activity
  // between the IPC events.  Host-time cost only, bounded by the ring.
  loop_.set_fire_hook(
      [](void* ctx, sim::SimTime at) noexcept {
        static_cast<Domain*>(ctx)->flight_.record(
            0, obs::FlightKind::kTimer, at, 0, 0, 0, 0);
      },
      this);
  metrics_.register_callback("flight", "records", [this] {
    return static_cast<double>(flight_.records());
  });
  metrics_.register_callback("flight", "overwritten", [this] {
    return static_cast<double>(flight_.overwritten());
  });
  metrics_.register_callback("flight", "triggers", [this] {
    return static_cast<double>(flight_.triggers());
  });
  metrics_.register_callback("trace", "sampled", [this] {
    return static_cast<double>(tracer_.sampler().sampled());
  });
  metrics_.register_callback("trace", "skipped", [this] {
    return static_cast<double>(tracer_.sampler().skipped());
  });
}

Domain::~Domain() {
  // Teardown order safety: envelopes (slab slots, stashes, coroutine
  // frames) may still hold name spans borrowed from process records.  A
  // borrowed span's destructor unlinks itself from the lender's ledger —
  // a use-after-free if the record died first — so break every borrow now
  // (reset, not materialize: nothing reads name bytes during teardown, and
  // the lender's frame may already be gone).  After this loop no span
  // points into a record and the members can die in any order.
  for (auto& rec : records_) {
    while (rec->borrow_head != nullptr) rec->borrow_head->reset();
  }
}

void Domain::grow_env_slab() {
  // vlint: allow(hot-path-alloc): slab growth, amortized over 512 reuses
  auto chunk = std::make_unique<detail::EnvNode[]>(1u << kEnvChunkBits);
  const auto base =
      static_cast<std::uint32_t>(env_chunks_.size()) << kEnvChunkBits;
  env_chunks_.push_back(std::move(chunk));
  // Thread the fresh chunk onto the free list, last slot first, so slots
  // hand out in ascending index order.
  for (std::uint32_t i = 1u << kEnvChunkBits; i-- > 0;) {
    detail::EnvNode& node = env_node(base + i);
    node.next = env_free_;
    env_free_ = base + i;
  }
}

Host& Domain::add_host(std::string name) {
  const auto id = static_cast<HostId>(hosts_.size() + 1);
  hosts_.push_back(std::make_unique<Host>(*this, id, std::move(name)));
  flight_.attach_host(id, hosts_.back()->name());
  return *hosts_.back();
}

std::string Domain::process_name(ProcessId pid) const {
  const auto* rec = find(pid);
  return rec != nullptr ? rec->name : std::string{};
}

bool Domain::process_alive(ProcessId pid) const {
  const auto* rec = find(pid);
  return rec != nullptr && rec->alive;
}

V_HOT_PATH
detail::ProcessRecord* Domain::find(ProcessId pid) const {
  auto it = by_pid_.find(pid.raw);
  return it != by_pid_.end() ? it->second : nullptr;
}

detail::ProcessRecord& Domain::create_record(Host& host, std::string name) {
  // Allocate a fresh local pid, skipping ones still in the table (records
  // are retained after death, which also maximizes time-before-reuse).
  std::uint16_t local = host.next_local_pid_;
  ProcessId pid;
  for (;;) {
    if (local == 0) local = 1;
    pid = ProcessId::make(host.id(), local);
    ++local;
    if (by_pid_.find(pid.raw) == by_pid_.end()) break;
  }
  host.next_local_pid_ = local;

  auto rec = std::make_unique<detail::ProcessRecord>();
  rec->pid = pid;
  rec->name = std::move(name);
  rec->host = &host;
  auto* raw = rec.get();
  records_.push_back(std::move(rec));
  by_pid_[pid.raw] = raw;
  return *raw;
}

V_HOT_PATH
Domain::Passage Domain::pass_link(HostId from_host, ProcessId to,
                                  std::uint32_t actor, std::uint32_t peer,
                                  std::uint16_t code, std::uint64_t seq,
                                  std::uint8_t flags) {
  const bool local = to.local_to(from_host);
  Passage p{.hop = params_.hop(local)};
  // Link faults apply to remote packets only: local IPC never crosses the
  // wire (and MoveFrom/MoveTo model bulk transfer separately).  A lossless
  // plan draws no verdict at all.
  if (!loss_masking_ || local) return p;
  const fault::PacketDecision verdict =
      fault_plan_->on_packet(from_host, to.logical_host());
  if (verdict.duplicate) {
    flight_.record(to.logical_host(), obs::FlightKind::kFaultDup,
                   loop_.now(), actor, peer, code, seq, flags);
    p.duplicate = true;
    p.dup_hop = p.hop + verdict.extra_delay + verdict.dup_delay;
  }
  if (verdict.drop) {  // the retransmit masks the loss, of either packet
    flight_.record(to.logical_host(), obs::FlightKind::kFaultDrop,
                   loop_.now(), actor, peer, code, seq, flags);
    p.lost = true;
  }
  p.hop += verdict.extra_delay;
  return p;
}

V_HOT_PATH
void Domain::deliver(HostId from_host, Envelope env, ProcessId dest,
                     bool synth_on_dead) {
  const Passage p =
      pass_link(from_host, dest, env.sender.raw, dest.raw, env.request.code(),
                env.txn_seq, env.trace.sampled() ? 1 : 0);
  // Park the envelope in the slab and schedule a slot-index closure: the
  // capture is 24 bytes no matter how fat Envelope grows, so the delivery
  // event always stays inside the event loop's inline action buffer.
  auto land = [this, dest](sim::SimDuration after, Envelope&& packet,
                           bool synth) {
    const std::uint32_t slot = env_acquire();
    env_node(slot).env = std::move(packet);
    loop_.schedule_after(after, [this, slot, dest, synth] {
      arrive_slot(slot, dest, synth);
    });
  };
  // The duplicate copy never synthesizes kNoReply: it is extra traffic,
  // not the transaction's packet of record.
  if (p.duplicate) land(p.dup_hop, Envelope{env}, /*synth=*/false);
  if (!p.lost) land(p.hop, std::move(env), synth_on_dead);
}

std::size_t Domain::deliver_to_group(HostId from_host, const Envelope& env,
                                     GroupId group, ProcessId skip,
                                     bool count) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return 0;
  std::size_t delivered = 0;
  for (ProcessId member : it->second) {
    if (member == skip || !process_alive(member)) continue;
    deliver(from_host, env, member, /*synth_on_dead=*/false);
    if (count) count_request(from_host, member);
    ++delivered;
  }
  return delivered;
}

V_HOT_PATH
void Domain::arrive_slot(std::uint32_t slot, ProcessId dest,
                         bool synth_on_dead) {
  auto* rec = find(dest);
  Envelope& env = env_node(slot).env;
  // A paused host neither accepts nor loses packets: they queue until
  // resume() and land through this same gate (so all guards re-run then).
  // The envelope leaves the slab for the stash (cold path) so a crash's
  // stash_.clear() can never leak a slot.
  if (Host* host = paused_host(rec)) {
    host->stash([this, env = std::move(env), dest, synth_on_dead]() mutable {
      const std::uint32_t again = env_acquire();  // back into the slab
      env_node(again).env = std::move(env);
      arrive_slot(again, dest, synth_on_dead);
    });
    env_release(slot);
    return;
  }
  if (rec == nullptr || !rec->alive) {
    // The synthesized kNoReply answers THIS copy's transaction: a stale
    // copy (a retransmit landing after its sender moved on) fails nothing.
    if (synth_on_dead) {
      // vlint: allow(hot-path-alloc): dead-destination reply, off the hot delivery path
      synth_reply(env.sender, ReplyCode::kNoReply, env.txn_seq);
    }
    env_release(slot);
    return;
  }
  // The transaction rule: if the sender has moved past this transaction
  // (answered by a retransmit, timed out of a group send, or gave up), the
  // copy answers nothing — processing it could only produce a reply no one
  // is waiting for.
  auto* sender = find(env.sender);
  if (!current_txn(sender, env.txn_seq) || !sender->awaiting_reply) {
    env_release(slot);
    return;
  }
  // At-most-once under loss masking: a duplicate of a transaction this
  // server has already seen is suppressed, re-driven or replayed — never
  // re-executed.
  // vlint: allow(hot-path-alloc): behind loss_masking_, set only by a plan whose links can fault
  if (loss_masking_ && suppress_duplicate(*rec, env)) {
    env_release(slot);
    return;
  }
  // Protocol lint (V-check layer 2): validate the header invariants
  // before the server ever sees the message.  Malformed requests are
  // rejected here with a synthesized error reply, exactly as a
  // conformant server would answer, plus a decoded dump for triage.
  if (const auto reject = lint_.check_request(
          env.request, env.sender.raw, env.segments.read_size(), dest.raw,
          static_cast<std::uint64_t>(loop_.now()))) {
    // vlint: allow(hot-path-alloc): malformed-request reject, off the hot delivery path
    synth_reply(env.sender, *reject, env.txn_seq);
    env_release(slot);
    return;
  }
  // Track where the blocked sender's request currently lives so crash
  // sweeps can find it (updated again on each forward delivery).
  sender->blocked_on = dest;
  // Queue-wait measurement starts the moment the message lands in the
  // receiver's mailbox (the hop delay itself is not queue time).
  if (env.trace.trace_id != 0) env.trace.enqueued_at = loop_.now();
  env.addressed = dest;
  // Accepted: link the slot onto the destination's intrusive mailbox FIFO.
  detail::EnvNode& node = env_node(slot);
  node.next = detail::kNilEnv;
  if (rec->mbox_tail == detail::kNilEnv) {
    rec->mbox_head = slot;
  } else {
    env_node(rec->mbox_tail).next = slot;
  }
  rec->mbox_tail = slot;
  if (rec->waiting_receive && rec->recv_waker.armed()) {
    rec->waiting_receive = false;
    rec->recv_waker.wake(loop_);
  }
}

V_HOT_PATH
void Domain::deliver_reply(HostId from_host, const msg::Message& reply,
                           const Envelope& env, ProcessId from,
                           const BindingHint& hint,
                           const BindingHint& origin) {
  ++stats_.replies_sent;
  // Protocol lint: replies from registered server-team pids must carry a
  // standard reply code.  Violations are recorded but still delivered.
  lint_.check_reply(reply, from.raw, env.sender.raw,
                    static_cast<std::uint64_t>(loop_.now()));
  // Under loss masking, close the transaction slot this reply answers,
  // caching the reply so duplicate requests replay it instead of
  // re-executing.
  // vlint: allow(hot-path-alloc): behind loss_masking_, set only by a plan whose links can fault
  if (loss_masking_) record_served_reply(env, reply, hint, origin);
  send_reply_packet(from_host, reply, env.sender, hint, origin, env.txn_seq);
}

V_HOT_PATH
void Domain::send_reply_packet(HostId from_host, const msg::Message& reply,
                               ProcessId to, const BindingHint& hint,
                               const BindingHint& origin,
                               std::uint32_t answered_seq) {
  const Passage p =
      pass_link(from_host, to, to.raw, 0,
                static_cast<std::uint16_t>(reply.code()), answered_seq, 0);
  auto land = [&](sim::SimDuration after) {
    loop_.schedule_after(after, [this, reply, to, hint, origin, answered_seq] {
      arrive_reply(to, reply, hint, origin, answered_seq);
    });
  };
  if (p.duplicate) land(p.dup_hop);
  if (!p.lost) land(p.hop);  // a lost one: the retransmit re-earns it
}

V_HOT_PATH
void Domain::arrive_reply(ProcessId to, const msg::Message& reply,
                          const BindingHint& hint, const BindingHint& origin,
                          std::uint32_t answered_seq) {
  auto* rec = find(to);
  if (Host* host = paused_host(rec)) {
    host->stash([this, to, reply, hint, origin, answered_seq] {
      arrive_reply(to, reply, hint, origin, answered_seq);
    });
    return;
  }
  if (stale_reply(rec, answered_seq)) return;
  complete_reply(to, reply, hint, origin);
}

V_HOT_PATH
bool Domain::stale_reply(const detail::ProcessRecord* rec,
                         std::uint32_t answered_seq) {
  // A reply must answer the sender's CURRENT transaction: a late copy of
  // an earlier transaction's reply (a slow server, a duplicate in flight,
  // or the client already gave up and moved on) must not complete a newer
  // send.
  if (current_txn(rec, answered_seq)) return false;
  if (fault_plan_ != nullptr) ++fault_plan_->stats().stale_replies_dropped;
  return true;
}

void Domain::synth_reply(ProcessId to, ReplyCode code,
                         std::uint32_t answered_seq) {
  loop_.schedule_after(params_.local_hop, [this, to, code, answered_seq] {
    if (stale_reply(find(to), answered_seq)) return;
    complete_reply(to, msg::make_reply(code));
  });
}

void Domain::schedule_timeout(ProcessId to, std::uint32_t txn,
                              sim::SimDuration after) {
  // A timer is not a reply on the wire: one that outlives its transaction
  // is simply spent, not counted as a stale reply.
  loop_.schedule_after(after, [this, to, txn] {
    if (current_txn(find(to), txn)) {
      complete_reply(to, msg::make_reply(ReplyCode::kTimeout));
    }
  });
}

V_HOT_PATH
void Domain::complete_reply(ProcessId to, const msg::Message& reply,
                            const BindingHint& hint,
                            const BindingHint& origin) {
  auto* rec = find(to);
  if (rec == nullptr || !rec->alive || !rec->awaiting_reply) {
    return;  // late/duplicate reply (e.g. second group answer): discarded
  }
  rec->awaiting_reply = false;
  rec->blocked_on = ProcessId::invalid();
  rec->reply = reply;
  rec->reply_hint = hint;      // {} for unhinted and synthesized replies
  rec->reply_origin = origin;
  // open_transaction stamps send_started_at whenever it sets
  // awaiting_reply, so a blocked sender always has a start time.
  const sim::SimTime now = loop_.now();
  const sim::SimDuration took = now - rec->send_started_at;
  const auto code = static_cast<std::uint16_t>(reply.code());
  slo_.observe(rec->last_send_code, took);
  flight_.record(to.logical_host(), obs::FlightKind::kReply, now, to.raw, 0,
                 code, static_cast<std::uint64_t>(took));
  // One outstanding Send per process, so the sender pid keys the open root
  // span; closing it here covers Reply, Forward chains and synthesized
  // replies alike.  A failed send head sampling skipped gets a mark.
  tracer_.end_send(to.raw, code, rec->send_started_at, now);
  rec->send_started_at = -1;
  if (rec->reply_waker.armed()) rec->reply_waker.wake(loop_);
}

void Domain::install_faults(fault::FaultPlan& plan) {
  fault_plan_ = &plan;
  plan.freeze_links();
  loss_masking_ = !plan.lossless();
  for (const auto& ev : plan.events()) {
    const std::uint16_t host_idx = ev.host;
    const fault::HostEvent::Kind kind = ev.kind;
    loop_.schedule_at(ev.at, [this, host_idx, kind, then = ev.then] {
      if (host_idx < 1 || host_idx > hosts_.size()) return;
      Host& host = *hosts_[host_idx - 1];
      auto& fs = fault_plan_->stats();
      switch (kind) {
        case fault::HostEvent::Kind::kCrash:
          if (host.alive()) {
            host.crash();
            ++fs.crashes;
          }
          break;
        case fault::HostEvent::Kind::kRestart:
          if (!host.alive()) {
            host.restart();
            ++fs.restarts;
          }
          break;
        case fault::HostEvent::Kind::kPause:
          if (host.alive() && !host.paused()) {
            host.pause();
            ++fs.pauses;
          }
          break;
        case fault::HostEvent::Kind::kResume:
          if (host.paused()) {
            host.resume();
            ++fs.resumes;
          }
          break;
      }
      if (then) then();
    });
  }
  if (!fault_metrics_registered_) {
    fault_metrics_registered_ = true;
    auto mirror = [this](const char* name,
                         std::uint64_t fault::FaultStats::*field) {
      metrics_.register_callback("fault", name, [this, field] {
        return static_cast<double>(fault_plan_->stats().*field);
      });
    };
    mirror("packets_seen", &fault::FaultStats::packets_seen);
    mirror("drops", &fault::FaultStats::drops);
    mirror("duplicates", &fault::FaultStats::duplicates);
    mirror("reorders", &fault::FaultStats::reorders);
    mirror("crashes", &fault::FaultStats::crashes);
    mirror("restarts", &fault::FaultStats::restarts);
    mirror("pauses", &fault::FaultStats::pauses);
    mirror("resumes", &fault::FaultStats::resumes);
    mirror("retransmits", &fault::FaultStats::retransmits);
    mirror("budget_exhausted", &fault::FaultStats::budget_exhausted);
    mirror("dup_requests_suppressed",
           &fault::FaultStats::dup_requests_suppressed);
    mirror("cached_replies_replayed",
           &fault::FaultStats::cached_replies_replayed);
    mirror("forwards_replayed", &fault::FaultStats::forwards_replayed);
    mirror("stale_replies_dropped",
           &fault::FaultStats::stale_replies_dropped);
  }
}

void Domain::schedule_retransmit(Envelope env, ProcessId dest,
                                 sim::SimDuration timeout,
                                 std::uint32_t remaining) {
  loop_.schedule_after(timeout, [this, env = std::move(env), dest, timeout,
                                 remaining]() mutable {
    if (txn_sender(env) == nullptr) {
      return;  // transaction closed (answered, or the sender died)
    }
    if (remaining == 0) {
      // Budget exhausted: only now does the transport admit defeat.
      ++fault_plan_->stats().budget_exhausted;
      flight_.record(env.sender.logical_host(),
                     obs::FlightKind::kBudgetExhausted, loop_.now(),
                     env.sender.raw, dest.raw, env.request.code(), 0,
                     env.trace.sampled() ? 1 : 0);
      flight_.trigger(obs::kDumpRetryExhausted, loop_.now());
      complete_reply(env.sender, msg::make_reply(ReplyCode::kNoReply));
      return;
    }
    ++fault_plan_->stats().retransmits;
    ++stats_.messages_sent;
    ++stats_.remote_messages;
    if (tracer_.active()) {
      // Late promotion: a transaction that needed a retransmit is exactly
      // the kind head sampling should not have skipped.  Open its root
      // span now — hops already taken are gone (head sampling cannot
      // resurrect them), but every hop from this retransmit on is traced.
      if (env.trace.trace_id == 0) {
        open_root_span(env, "send ", " (promoted)", /*label=*/{});
      }
      tracer_.mark(env.trace.trace_id, env.trace.parent_span, "retransmit",
                   env.sender.raw, loop_.now(), loop_.now());
    }
    flight_.record(env.sender.logical_host(), obs::FlightKind::kRetransmit,
                   loop_.now(), env.sender.raw, dest.raw,
                   env.request.code(), remaining,
                   env.trace.sampled() ? 1 : 0);
    deliver(env.sender.logical_host(), env, dest);
    const auto backed_off = static_cast<sim::SimDuration>(
        static_cast<double>(timeout) * fault_plan_->retry().backoff);
    schedule_retransmit(std::move(env), dest,
                        std::min(backed_off, fault_plan_->retry().max_timeout),
                        remaining - 1);
  });
}

bool Domain::suppress_duplicate(detail::ProcessRecord& server,
                                const Envelope& env) {
  auto it = server.dup_table.find(env.sender.raw);
  if (it == server.dup_table.end() || it->second.seq != env.txn_seq ||
      !(it->second.presented == env.request)) {
    // A new transaction from this client — or the SAME transaction
    // presented with different request bytes (a forwarding server rewrote
    // index/context en route; not a retransmission).  Open or recycle the
    // slot and let the server process it.
    auto& txn = server.dup_table[env.sender.raw];
    txn = detail::TxnState{};
    txn.seq = env.txn_seq;
    txn.presented = env.request;
    return false;
  }
  detail::TxnState& txn = it->second;
  auto& fs = fault_plan_->stats();
  switch (txn.phase) {
    case detail::TxnState::Phase::kPending:
      // Still working on the original copy; drop the duplicate.
      ++fs.dup_requests_suppressed;
      return true;
    case detail::TxnState::Phase::kForwarded: {
      // The request moved on — but that hop may have been lost.  Re-drive
      // the stored forward; the next server's own suppression makes the
      // replay harmless if the hop did arrive.
      ++fs.forwards_replayed;
      const HostId from_host = server.pid.logical_host();
      if (txn.fwd_group != 0) {
        deliver_to_group(from_host, txn.fwd_env, txn.fwd_group,
                         /*skip=*/ProcessId::invalid(), /*count=*/false);
      } else {
        deliver(from_host, txn.fwd_env, txn.fwd_dest);
      }
      return true;
    }
    case detail::TxnState::Phase::kReplied:
      // Already served: replay the cached reply (the reply packet itself
      // may have been the loss).  At-most-once: never re-execute.
      ++fs.cached_replies_replayed;
      send_reply_packet(server.pid.logical_host(), txn.reply, env.sender,
                        txn.hint, txn.origin, txn.seq);
      return true;
  }
  return false;
}

void Domain::note_forward(ProcessId forwarder, const Envelope& env,
                          ProcessId new_dest, GroupId group) {
  ++stats_.forwards;
  // The forwarder will never reply to this request itself: settle its
  // outstanding-request ledger entry (duplicate-reply invariant).
  lint_.note_forwarded(env.addressed.raw, env.sender.raw);
  flight_.record(forwarder.logical_host(), obs::FlightKind::kForward,
                 loop_.now(), forwarder.raw,
                 new_dest.valid() ? new_dest.raw
                                  : static_cast<std::uint32_t>(group),
                 env.request.code(), env.txn_seq,
                 env.trace.sampled() ? 1 : 0);
  if (!loss_masking_) return;
  auto* holder = find(env.addressed);
  if (holder == nullptr) return;
  auto it = holder->dup_table.find(env.sender.raw);
  if (it == holder->dup_table.end() || it->second.seq != env.txn_seq) return;
  detail::TxnState& txn = it->second;
  txn.phase = detail::TxnState::Phase::kForwarded;
  txn.fwd_env = env;
  txn.fwd_dest = new_dest;
  txn.fwd_group = group;
}

void Domain::record_served_reply(const Envelope& env,
                                 const msg::Message& reply,
                                 const BindingHint& hint,
                                 const BindingHint& origin) {
  auto* server = find(env.addressed);
  if (server == nullptr) return;
  auto it = server->dup_table.find(env.sender.raw);
  // A slot recycled by the client's newer transaction is not this reply's.
  if (it == server->dup_table.end() || it->second.seq != env.txn_seq) return;
  detail::TxnState& txn = it->second;
  txn.phase = detail::TxnState::Phase::kReplied;
  txn.reply = reply;
  txn.hint = hint;
  txn.origin = origin;
  txn.fwd_env = Envelope{};  // release the stored forward
}

void Domain::open_root_span(Envelope& env, std::string_view prefix,
                            std::string_view suffix, std::string_view label) {
  env.trace.set_sampled();
  env.trace.trace_id = tracer_.begin_trace();
  const std::uint32_t root = tracer_.begin_span(
      env.trace.trace_id, 0,
      std::string(prefix)
          .append(obs::opcode_label(env.request.code()))
          .append(suffix),
      "send", env.sender.raw, loop_.now());
  tracer_.set_process_label(env.sender.raw, label);
  tracer_.note_send(env.sender.raw, root);
  env.trace.parent_span = root;
}

void Domain::set_latency_slo(std::uint16_t code, sim::SimDuration budget) {
  const bool fresh = slo_.find(code) == nullptr;
  slo_.set_budget(code, budget);
  if (!fresh) return;  // budget updated; mirrors already registered
  const std::string label(obs::opcode_label(code));
  metrics_.register_callback("slo", label + ".within", [this, code] {
    const auto* s = slo_.find(code);
    return s != nullptr ? static_cast<double>(s->within) : 0.0;
  });
  metrics_.register_callback("slo", label + ".over", [this, code] {
    const auto* s = slo_.find(code);
    return s != nullptr ? static_cast<double>(s->over) : 0.0;
  });
}

void Domain::enable_watchdog(sim::SimDuration threshold,
                             sim::SimDuration period) {
  wd_threshold_ = threshold;
  wd_period_ = period > 0 ? period : threshold / 2;
  if (wd_period_ <= 0) wd_period_ = 1;
  arm_watchdog();
}

void Domain::arm_watchdog() {
  if (wd_threshold_ <= 0 || wd_armed_) return;
  wd_armed_ = true;
  loop_.schedule_at(loop_.now() + wd_period_, [this] { watchdog_scan(); });
}

void Domain::watchdog_scan() {
  wd_armed_ = false;
  if (wd_threshold_ <= 0) return;
  const sim::SimTime now = loop_.now();
  bool outstanding = false;
  for (const auto& rec : records_) {
    if (!rec->alive || !rec->awaiting_reply || rec->send_started_at < 0) {
      continue;
    }
    outstanding = true;
    const sim::SimDuration blocked = now - rec->send_started_at;
    if (blocked > wd_threshold_) {
      // One trip per arm: record the first overdue fiber, dump, disarm —
      // a wedged run should yield one post-mortem, not a dump per period.
      ++wd_trips_;
      flight_.record(rec->pid.logical_host(), obs::FlightKind::kWatchdog,
                     now, rec->pid.raw, rec->blocked_on.raw,
                     rec->last_send_code, static_cast<std::uint64_t>(blocked));
      flight_.trigger(obs::kDumpWatchdog, now);
      wd_threshold_ = 0;
      return;
    }
  }
  // Dormancy: with no outstanding send there is nothing to watch — stop
  // rescheduling so run_until_idle() can drain; Process::send re-arms.
  if (outstanding) arm_watchdog();
}

std::vector<Domain::FiberHotspot> Domain::top_fibers(std::size_t k) const {
  std::vector<FiberHotspot> rows;
  rows.reserve(records_.size());
  for (const auto& rec : records_) {
    if (!rec->fiber) continue;
    const auto state = rec->fiber->state();
    if (!state) continue;
    rows.push_back(FiberHotspot{rec->name, rec->pid.raw, state->dispatches,
                                state->wall_ns});
  }
  std::sort(rows.begin(), rows.end(),
            [](const FiberHotspot& a, const FiberHotspot& b) {
              if (a.wall_ns != b.wall_ns) return a.wall_ns > b.wall_ns;
              return a.dispatches > b.dispatches;
            });
  if (rows.size() > k) rows.resize(k);
  return rows;
}

void Domain::kill_process(detail::ProcessRecord& rec) {
  // Name bytes borrowed from this sender's frame must become owned copies
  // BEFORE the frame can unwind: any dispatch still holding a borrow keeps
  // reading correct bytes and the event sequence does not change.
  while (rec.borrow_head != nullptr) rec.borrow_head->materialize();
  rec.alive = false;
  // Return the queued envelopes' slab slots.
  for (std::uint32_t slot = rec.mbox_head; slot != detail::kNilEnv;) {
    const std::uint32_t next = env_node(slot).next;
    env_release(slot);
    slot = next;
  }
  rec.mbox_head = detail::kNilEnv;
  rec.mbox_tail = detail::kNilEnv;
  lint_.forget(rec.pid.raw);
  if (rec.fiber) {
    rec.fiber->kill();
    // Deliver the pending resume so the fiber can unwind.
    if (rec.recv_waker.armed()) rec.recv_waker.wake(loop_);
    if (rec.reply_waker.armed()) rec.reply_waker.wake(loop_);
  }
}

}  // namespace v::ipc
