// CsnhServer: base class for every character-string-name-handling server
// (paper sections 5.3-5.7).
//
// "Any V server implementing one or more name spaces or contexts must
// conform to the name-handling protocol."  This class is that conformance:
// it implements, once, the parts the protocol fixes for all servers —
//
//   * the CSname standard header handling and name-segment fetch,
//   * the name-mapping procedure: left-to-right component interpretation
//     with CurrentContext, and forwarding of partially-interpreted requests
//     to the server implementing the next context (section 5.4),
//   * the standard operations: MapContextName, Query/Modify descriptors,
//     Remove/Rename/Create, the optional Add/DeleteContextName, the inverse
//     mappings GetContextName/GetFileName (section 5.7),
//   * context directories readable (and writeable) as files via the V I/O
//     protocol (section 5.6), and
//   * the I/O protocol instance operations.
//
// Subclasses provide the name space itself through the lookup/describe/...
// hooks.  A server keeps full freedom in syntax by overriding
// parse_component (the mail server treats "user@host" as one component),
// and in interpretation by overriding the hooks — exactly the flexibility
// the paper claims for the distributed model.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chk/shared_cell.hpp"
#include "common/flat_map.hpp"
#include "common/result.hpp"
#include "io/instance.hpp"
#include "ipc/kernel.hpp"
#include "msg/csname.hpp"
#include "msg/message.hpp"
#include "msg/request_codes.hpp"
#include "naming/descriptor.hpp"
#include "naming/protocol.hpp"
#include "naming/types.hpp"
#include "obs/metrics.hpp"
#include "sim/condition.hpp"
#include "sim/task.hpp"

namespace v::naming {

/// Concurrency knobs for one server team (paper section 3: V servers are
/// teams of processes, so one slow request never stalls the service).
///
///   workers    — worker processes pulling from the team's work queue.
///                1 = classic serial loop (receive/dispatch in one fiber,
///                no queue, no shedding).  >1 = receptionist + worker pool.
///   queue_cap  — bound on queued (accepted but not yet dispatched)
///                requests.  At the bound the receptionist sheds new
///                requests with an immediate kBusy reply instead of letting
///                the backlog (and client latency) grow without limit.
struct TeamConfig {
  std::size_t workers = 1;
  std::size_t queue_cap = 64;
};

class CsnhServer {
 public:
  virtual ~CsnhServer() = default;

  /// The server's process body — the team RECEPTIONIST.  Spawn it with:
  ///   host.spawn("fs", [srv](ipc::Process p) { return srv->run(p); });
  /// The CsnhServer object must outlive the domain run.
  ///
  /// With team().workers == 1 this is the classic serial loop.  With more,
  /// the receptionist only receives and enqueues; worker processes (spawned
  /// on the same host via Host::spawn_team) dispatch concurrently.  Replies
  /// still quote pid() — the receptionist's pid is the server's public
  /// name; workers are anonymous team members.
  [[nodiscard]] sim::Co<void> run(ipc::Process self);

  /// Pid of the running server process (valid once run() has started).
  [[nodiscard]] ipc::ProcessId pid() const noexcept { return pid_; }

  /// Team knobs.  set_team must be called before run() starts.
  void set_team(TeamConfig team) noexcept { team_ = team; }
  [[nodiscard]] const TeamConfig& team() const noexcept { return team_; }

  /// Service group joined by the receptionist on every (re)start.  Recovery
  /// probes multicast to this group reach every live incarnation of the
  /// service, so a restarted server (new pid) is rediscoverable without any
  /// client knowing its address (paper section 7; PROTOCOL.md "Multicast
  /// rebinding").  0 = join nothing.  Set before run() starts.
  void set_service_group(ipc::GroupId group) noexcept {
    service_group_ = group;
  }

  /// Requests shed with kBusy because the work queue was at queue_cap.
  [[nodiscard]] std::uint64_t shed_count() const noexcept { return sheds_; }

  /// Mutation gates granted by FIFO handoff: a releasing holder passed the
  /// gate to a waiter that had queued behind it.
  [[nodiscard]] std::uint64_t gate_handoffs() const noexcept {
    return gate_handoffs_;
  }

  /// Current generation of `ctx` in this incarnation of the server.  Every
  /// gated name-space mutation bumps the affected context's generation; the
  /// values are drawn from the DOMAIN-wide monotone sequence, so no
  /// generation ever recurs — not in this server, not in a restarted one,
  /// not in an impostor listening on a recycled pid.  A request carrying an
  /// expected generation that differs is answered kStaleContext.
  [[nodiscard]] std::uint32_t generation(ContextId ctx) const noexcept {
    const auto it = generations_.find(ctx);
    return it != generations_.end() ? it->second : gen_floor_;
  }
  /// Requests accepted but not yet picked up by a worker.
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return work_queue_.raw().size();
  }

 protected:
  CsnhServer() = default;
  explicit CsnhServer(TeamConfig team) noexcept : team_(team) {}

  /// Result of looking up one name component in a context.
  struct LookupResult {
    enum class Kind {
      kMissing,        ///< no such name in the context
      kObject,         ///< names a leaf object (not a context)
      kLocalContext,   ///< names a context on this server
      kRemoteContext,  ///< names a context on another server -> forward
      kGroupContext,   ///< names a context implemented by a PROCESS GROUP
                       ///< (paper section 7) -> multicast forward
    };
    Kind kind = Kind::kMissing;
    ContextId context = kDefaultContext;  ///< kLocalContext / kGroupContext
    ContextPair remote;                   ///< for kRemoteContext
    ipc::GroupId group = 0;               ///< for kGroupContext
    std::uint32_t object_id = 0;          ///< for kObject (informational)
    /// kGroupContext only: forward as a RECOVERY PROBE — members that
    /// cannot serve the request stay silent instead of answering an error
    /// (V-fault rebinding; the prefix server uses this when an ordinary
    /// entry's target server is dead).
    bool probe = false;

    static LookupResult missing() { return {}; }
    static LookupResult object(std::uint32_t id = 0) {
      LookupResult r;
      r.kind = Kind::kObject;
      r.object_id = id;
      return r;
    }
    static LookupResult local(ContextId ctx) {
      LookupResult r;
      r.kind = Kind::kLocalContext;
      r.context = ctx;
      return r;
    }
    static LookupResult remote_ctx(ContextPair pair) {
      LookupResult r;
      r.kind = Kind::kRemoteContext;
      r.remote = pair;
      return r;
    }
    static LookupResult group_ctx(ipc::GroupId group, ContextId ctx) {
      LookupResult r;
      r.kind = Kind::kGroupContext;
      r.group = group;
      r.context = ctx;
      return r;
    }
    static LookupResult group_probe(ipc::GroupId group, ContextId ctx) {
      LookupResult r = group_ctx(group, ctx);
      r.probe = true;
      return r;
    }
  };

  // --- mandatory hook --------------------------------------------------------

  /// Look up `component` in `ctx`.  A coroutine because some servers need
  /// kernel operations here (the prefix server resolves logical entries
  /// with GetPid at each use).
  virtual sim::Co<LookupResult> lookup(ipc::Process& self, ContextId ctx,
                                       std::string_view component) = 0;

  // --- optional hooks (defaults reply kIllegalRequest / kNoInverse) ----------

  /// Called once when the server process starts (register services, ...).
  virtual sim::Co<void> on_start(ipc::Process& self);

  /// Translate well-known context ids (kHomeContext...) to concrete ones.
  /// Default: identity.
  virtual ContextId translate_context(ContextId ctx) { return ctx; }

  /// Is `ctx` a context this server implements right now?
  virtual bool context_valid(ContextId ctx) {
    return ctx == kDefaultContext;
  }

  /// The generation a request's expected generation must equal (PROTOCOL.md
  /// 11).  Default: the context's content generation, so any gated mutation
  /// stales what a client cached.  A server whose clients cache something
  /// coarser than the contents — a shard's ownership of a prefix range —
  /// validates against that instead.  Binding and origin hints keep carrying
  /// the content generation either way: they report table edits.
  [[nodiscard]] virtual std::uint32_t validation_generation(
      ContextId ctx) const {
    return generation(ctx);
  }

  /// Split off the component of `name` starting at `index` (also skipping
  /// syntax like separators); sets `next` to where the next one begins.
  /// Default: '/'-separated.  Override for foreign syntaxes.
  virtual std::string_view parse_component(std::string_view name,
                                           std::size_t index,
                                           std::size_t& next);

  /// Fixed CPU charge for handling one CSname request (calibration:
  /// csname_parse; the context prefix server overrides this with its own
  /// measured processing cost).
  virtual sim::SimDuration parse_cost(ipc::Process& self,
                                      std::string_view name);

  /// Descriptor for the object `leaf` in `ctx`; an empty leaf means the
  /// context itself (default: a generic kContext record).
  virtual sim::Co<Result<ObjectDescriptor>> describe(ipc::Process& self,
                                                     ContextId ctx,
                                                     std::string_view leaf);

  /// Apply a modification record ("overwrites the original description";
  /// servers ignore fields that make no sense to change).
  virtual sim::Co<ReplyCode> modify(ipc::Process& self, ContextId ctx,
                                    std::string_view leaf,
                                    const ObjectDescriptor& desc);

  virtual sim::Co<ReplyCode> remove(ipc::Process& self, ContextId ctx,
                                    std::string_view leaf);
  virtual sim::Co<ReplyCode> rename(ipc::Process& self, ContextId ctx,
                                    std::string_view leaf,
                                    std::string_view new_leaf);
  virtual sim::Co<ReplyCode> create_object(ipc::Process& self, ContextId ctx,
                                           std::string_view leaf,
                                           std::uint16_t mode);
  virtual sim::Co<ReplyCode> make_context(ipc::Process& self, ContextId ctx,
                                          std::string_view leaf);
  /// Bind leaf -> target inside this server's name space (cross-server
  /// pointer, the curved arrow of Figure 4).
  virtual sim::Co<ReplyCode> link_context(ipc::Process& self, ContextId ctx,
                                          std::string_view leaf,
                                          ContextPair target);

  /// Optional operations, "ordinarily implemented only in context prefix
  /// servers" (section 5.7).  `logical_service` is set (non-kNone) for
  /// logical-pid entries resolved by GetPid at each use; `group` is set
  /// (non-zero) for group-implemented contexts (section 7), in which case
  /// `target.context` still carries the context id within the group.
  virtual sim::Co<ReplyCode> add_context_name(ipc::Process& self,
                                              ContextId ctx,
                                              std::string_view leaf,
                                              ContextPair target,
                                              ipc::ServiceId logical_service,
                                              ipc::GroupId group);
  virtual sim::Co<ReplyCode> delete_context_name(ipc::Process& self,
                                                 ContextId ctx,
                                                 std::string_view leaf);

  /// Open `leaf` as an I/O instance (files, terminals, connections...).
  virtual sim::Co<Result<std::unique_ptr<io::InstanceObject>>> open_object(
      ipc::Process& self, ContextId ctx, std::string_view leaf,
      std::uint16_t mode);

  /// All objects in `ctx`, for context-directory fabrication.  Default:
  /// kIllegalRequest (servers without enumerable contexts).
  virtual sim::Co<Result<std::vector<ObjectDescriptor>>> list_context(
      ipc::Process& self, ContextId ctx);

  /// Inverse mappings (section 5.7 / section 6's "reverse mapping").
  /// Default kNoInverse — the paper is explicit that inverses may not exist.
  virtual Result<std::string> context_to_name(ContextId ctx);
  virtual Result<std::string> instance_to_name(io::InstanceId instance);

  /// CSname requests with operation codes this base does not know, already
  /// resolved to (ctx, leaf).  Default: kIllegalRequest reply.
  virtual sim::Co<msg::Message> handle_custom_csname(
      ipc::Process& self, ipc::Envelope& env, ContextId ctx,
      std::string_view leaf, std::string_view name);

  /// Non-CSname requests this base does not know.  Default: kIllegalRequest.
  ///
  /// A handler may return silent_discard() to answer NOTHING — the group
  /// discipline for misc ops multicast to a service group: only the
  /// designated member replies, everyone else stays silent: one reply per
  /// multicast, not a chorus (a stray second reply names a closed
  /// transaction, so the kernel would drop it anyway; PROTOCOL.md §12).
  /// The sender's group timeout covers the nobody-answered case.
  virtual sim::Co<msg::Message> handle_custom(ipc::Process& self,
                                              ipc::Envelope& env);

  /// Requests the receptionist queues at the FRONT of the work queue and
  /// exempts from load shedding: tiny metadata queries (e.g. a shard-map
  /// fetch) whose answers unblock routing decisions.  A saturated team's
  /// queue wait exceeds the sender's group timeout, so a back-of-queue
  /// metadata reply would always arrive too late to be accepted — the
  /// express lane bounds its wait to one in-flight dispatch instead.
  [[nodiscard]] virtual bool express_lane(const msg::Message&) const {
    return false;
  }

  /// Sentinel reply meaning "do not reply at all" (see handle_custom).
  /// Never appears on the wire: dispatch intercepts it and settles the
  /// lint ledger instead of sending.
  static constexpr std::uint16_t kSilentDiscard = 0xFFFF;
  [[nodiscard]] static msg::Message silent_discard() {
    msg::Message m;
    m.set_code(kSilentDiscard);
    return m;
  }

  /// I/O-protocol instance operations (Query/Read/Write/ReleaseInstance).
  /// The default drives the InstanceObject in `instances()`.  Overriders
  /// may return nullopt to DEFER: the handler keeps the envelope and
  /// replies later (how the pipe server blocks readers on empty pipes).
  virtual sim::Co<std::optional<msg::Message>> handle_instance_op(
      ipc::Process& self, ipc::Envelope& env);

  /// Open instance table (subclass open_object results land here too).
  [[nodiscard]] io::InstanceTable& instances() noexcept { return instances_; }

  /// Race-detector annotation (V-check layer 1): every hook body that
  /// mutates the name space under (ctx, leaf) calls this first.  Verifies,
  /// against this server's own gate table, that the calling process holds
  /// the matching (ctx, leaf) mutation gate and throws chk::RaceError
  /// naming both processes when it does not.
  void note_name_write(ipc::Process& self, ContextId ctx,
                       std::string_view leaf);

  /// Advance `ctx`'s generation (next value of the domain-wide sequence).
  /// The base calls this after every successful gated mutation; subclasses
  /// whose mutations touch MORE contexts than the dispatched one (a
  /// directory rename relocates every descendant context) call it for each
  /// extra context affected, while still holding the mutation gate.
  void bump_generation(ipc::Process& self, ContextId ctx);

  /// V-trace metric helpers: count/measure under this server's registry
  /// scope (its process name).
  void metric_inc(ipc::Process& self, std::string_view name,
                  std::uint64_t n = 1);
  void metric_gauge(ipc::Process& self, std::string_view name,
                    std::int64_t value);
  void metric_hist(ipc::Process& self, std::string_view name, double value);

  /// Handle slot for a counter a subclass bumps on every request.  The
  /// first metric_inc through it resolves `name` exactly as the string-keyed
  /// overload would (same registry entry, same first-use moment); later
  /// calls are one pointer bump.  Subclasses holding handles override
  /// reset_metric_handles() to clear them.
  using CounterHandle = obs::Counter*;
  void metric_inc(ipc::Process& self, CounterHandle& handle,
                  std::string_view name, std::uint64_t n = 1) {
    cached_counter(self, handle, name).inc(n);
  }

  /// Drop every cached metric handle.  run() calls this at each start:
  /// handles are per-incarnation (the scope name or even the domain may
  /// differ from the previous run of this server object).  Overrides clear
  /// their own handles and call the base.
  virtual void reset_metric_handles();

  /// Reply to a CSname request, honouring recovery-probe silence: an error
  /// reply to a request carrying kFlagRecoveryProbe is DROPPED (the probing
  /// client multicast to a group and only a member that can serve it may
  /// answer; its timeout covers the nobody-can case).  Success replies and
  /// replies to ordinary requests pass through unchanged.  Handlers that
  /// reply out of line use this instead of Process::reply.
  void reply_csname(ipc::Process& self, const ipc::Envelope& env,
                    const msg::Message& reply);

 private:
  /// One worker process: pull envelopes from the team queue, dispatch.
  sim::Co<void> worker_loop(ipc::Process self);

  // --- mutating-op serialization guard ---------------------------------------
  // The serial loop implicitly ordered ALL operations; a worker pool keeps
  // only the ordering that matters: operations that MUTATE the name space
  // under one (context, leaf) run mutually excluded and FIFO (grant order =
  // arrival order at the gate, which the deterministic event loop fixes per
  // seed).  Read-only operations never touch a gate and run fully parallel.

  using GateKey = std::pair<ContextId, std::string>;
  struct GateLock;
  struct Gate {
    ipc::ProcessId holder;          ///< current holder; invalid when free
    sim::SimTime held_since = 0;    ///< acquisition time of current holder
    std::deque<GateLock*> waiters;  ///< FIFO grant order
  };

  /// Awaitable + RAII ownership of one (ctx, leaf) gate.  `co_await lock`
  /// acquires (immediately when free); destruction releases and grants the
  /// next waiter.  Kill-safe: a waiter resumed after its fiber was killed
  /// throws FiberKilled; a waiter destroyed while still queued (fiber
  /// unwound without resume) unlinks itself.  Every acquisition (including
  /// FIFO handoff) records the new holder on the Gate, which is what
  /// note_name_write checks.
  struct GateLock {
    GateLock(CsnhServer& server, ipc::Domain& domain,
             sim::FiberState* fiber, GateKey key,
             ipc::ProcessId pid) noexcept
        : server_(server), domain_(domain), fiber_(fiber),
          key_(std::move(key)), pid_(pid) {}
    GateLock(const GateLock&) = delete;
    GateLock& operator=(const GateLock&) = delete;
    ~GateLock();

    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const;

    /// Record this lock's process as `gate`'s holder.
    void note_acquired(Gate& gate) const;

    /// Stable hash of the (ctx, leaf) key — the flight recorder's gate
    /// identity (FNV-1a, so dumps are identical across hosts/builds).
    [[nodiscard]] std::uint64_t key_hash() const noexcept;

    CsnhServer& server_;
    ipc::Domain& domain_;
    sim::FiberState* fiber_;  ///< raw on purpose — see awaitables.hpp
    GateKey key_;
    ipc::ProcessId pid_;
    std::coroutine_handle<> handle_ = nullptr;
    bool acquired_ = false;  ///< we own the gate (must release)
    bool queued_ = false;    ///< we sit in the waiters deque
  };

  /// Does `code` mutate the name space under its (ctx, leaf)?  CreateInstance
  /// counts only with kOpenCreate (plain opens are reads); unknown custom
  /// CSname codes count conservatively (the base cannot know better).
  static bool mutates_name(std::uint16_t code, std::uint16_t mode) noexcept;

  sim::Co<void> dispatch(ipc::Process& self, ipc::Envelope env);
  sim::Co<void> handle_csname(ipc::Process& self, ipc::Envelope& env);
  /// Apply one context-directory record write: acquire the (ctx, leaf)
  /// mutation gate, then invoke modify().  Directory writes arrive on the
  /// instance-op path, which holds no gate of its own — without this a
  /// directory-file write would mutate an entry a concurrent team worker
  /// holds the gate for.
  sim::Co<ReplyCode> gated_modify(ipc::Process& self, ContextId ctx,
                                  ObjectDescriptor desc);
  /// Pop the front work-queue envelope (called with the queue non-empty;
  /// no suspension between the caller's emptiness check and this pop).
  ipc::Envelope take_work(ipc::Process& self);
  sim::Co<msg::Message> do_open(ipc::Process& self, ipc::Envelope& env,
                                ContextId ctx, std::string_view leaf,
                                std::uint16_t mode);
  sim::Co<msg::Message> do_query(ipc::Process& self, ipc::Envelope& env,
                                 ContextId ctx, std::string_view leaf);
  sim::Co<msg::Message> do_modify(ipc::Process& self, ipc::Envelope& env,
                                  ContextId ctx, std::string_view leaf,
                                  std::size_t payload_offset);
  sim::Co<msg::Message> do_rename(ipc::Process& self, ipc::Envelope& env,
                                  ContextId ctx, std::string_view leaf,
                                  std::size_t payload_offset);
  sim::Co<msg::Message> do_inverse_name(ipc::Process& self,
                                        ipc::Envelope& env,
                                        Result<std::string> name);

  /// Ops that DEFINE the final component rather than resolving it (create,
  /// add-name, remove...): the mapping walk must stop before consuming the
  /// last component, or e.g. redefining an existing prefix would forward
  /// the request to the old target instead of updating the table.
  static bool defines_leaf(std::uint16_t code) noexcept;

  io::InstanceTable instances_;
  /// Race-detector cell for instances_: table accesses register here so an
  /// access held across a suspension point is caught (handlers that need
  /// the object across co_awaits hold a shared_ptr instead, by design).
  chk::CellState instances_cell_{"server.instances"};
  ipc::ProcessId pid_;

  // --- context generations ---------------------------------------------------
  /// Per-context generation overrides; contexts never mutated in this
  /// incarnation sit at gen_floor_.  Cleared on (re)start: a fresh floor
  /// from the domain sequence makes every previously-cached generation
  /// mismatch, which is what defeats the paper-§2.2 impostor aliasing.
  std::map<ContextId, std::uint32_t> generations_;
  std::uint32_t gen_floor_ = 0;

  // --- team state ------------------------------------------------------------
  TeamConfig team_;
  /// Accepted envelopes awaiting a worker.  SharedCell: receptionist and
  /// workers borrow it momentarily; holding a borrow across a suspension
  /// point is a race the detector reports.
  chk::SharedCell<std::deque<ipc::Envelope>> work_queue_{"team.work_queue"};
  sim::WaitQueue work_ready_;             ///< idle workers park here
  std::uint64_t sheds_ = 0;
  std::uint64_t gate_handoffs_ = 0;
  std::map<GateKey, Gate> gates_;
  std::string metrics_scope_;  ///< registry scope = process name (set in run)
  ipc::GroupId service_group_ = 0;  ///< joined on (re)start when nonzero

  // --- pre-resolved metric handles (data-path fast path, DESIGN.md §4l) ------
  // The per-packet counters used to pay a string concat plus two
  // string-keyed map probes per request (metrics.cpp entry()).  Registry
  // references are stable for its lifetime (metrics.hpp), so the hot sites
  // cache the resolved handle and per-packet updates become one pointer
  // bump.  Resolution stays LAZY — an entry is created at the same
  // first-use moment as the string-keyed path it replaces, so registry
  // contents and creation order are unchanged.  run() clears the cache:
  // handles are per-incarnation (the scope name or even the domain may
  // differ from the previous run of this server object).
  obs::Counter& cached_counter(ipc::Process& self, obs::Counter*& slot,
                               std::string_view name) {
    if (slot == nullptr) {
      slot = &self.domain().metrics().counter(metrics_scope_, name);
    }
    return *slot;
  }
  obs::Gauge& cached_gauge(ipc::Process& self, obs::Gauge*& slot,
                           std::string_view name) {
    if (slot == nullptr) {
      slot = &self.domain().metrics().gauge(metrics_scope_, name);
    }
    return *slot;
  }
  obs::LogHistogram& cached_hist(ipc::Process& self,
                                 obs::LogHistogram*& slot,
                                 std::string_view name) {
    if (slot == nullptr) {
      slot = &self.domain().metrics().histogram(metrics_scope_, name);
    }
    return *slot;
  }
  /// "req.<opcode label>" counter for `code`, resolved once per code.
  obs::Counter& req_counter(ipc::Process& self, std::uint16_t code);

  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_forwarded_ = nullptr;
  obs::Counter* m_sheds_ = nullptr;
  obs::Counter* m_stale_context_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::LogHistogram* m_hops_ = nullptr;
  FlatMap<std::uint16_t, obs::Counter*> req_counters_;
};

}  // namespace v::naming
