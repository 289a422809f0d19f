// The simulated distributed V kernel (paper section 3).
//
// A Domain is one V installation: a set of logical hosts on one network,
// over which kernel operations are transparent with respect to machine
// boundaries.  Each Host runs processes (coroutine fibers).  The IPC
// primitives implement the Thoth-derived model:
//
//   Send        blocks the sender until the receiver Replies
//   Receive     blocks until a message arrives
//   Reply       unblocks a sender
//   Forward     re-addresses a received message; the original sender stays
//               blocked and the eventual Reply goes straight back to it
//   MoveFrom /  the receiver of a message reads/writes the blocked sender's
//   MoveTo      memory segments (bulk data path)
//
// plus the service registry (SetPid/GetPid with local/remote/both scopes and
// broadcast lookup) and process groups with multicast Send (the paper's
// stated future-work mechanism).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "chk/protocol_lint.hpp"
#include "common/result.hpp"
#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ipc/calibration.hpp"
#include "ipc/name_span.hpp"
#include "ipc/process_id.hpp"
#include "msg/message.hpp"
#include "sim/awaitables.hpp"
#include "sim/condition.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"
#include "common/annotate.hpp"

namespace v::ipc {

class Domain;
class Host;
class Process;

/// Memory segments a sender exposes for the duration of one Send.  The
/// receiver (or whoever the request is forwarded to) accesses them with
/// MoveFrom/MoveTo.  Spans must stay valid until the reply arrives — they
/// normally point into the sending coroutine's frame, which the simulator
/// keeps alive while the sender is blocked.
struct Segments {
  std::span<const std::byte> read;   ///< receiver may MoveFrom this
  /// Optional second read extent: MoveFrom addresses `read` and `read2` as
  /// one contiguous range (scatter-gather), so a sender whose logical
  /// segment is "name bytes + payload bytes" exposes both pieces in place
  /// instead of staging a concatenation buffer.
  std::span<const std::byte> read2;
  std::span<std::byte> write;        ///< receiver may MoveTo this

  /// Total readable bytes across both extents (the bound MoveFrom checks).
  [[nodiscard]] std::size_t read_size() const noexcept {
    return read.size() + read2.size();
  }
};

/// Where a name interpretation actually ended: the final server, the
/// context it dispatched the leaf in, that context's generation, and how
/// many name bytes the resolution chain consumed before the leaf.
/// Piggybacked on successful CSname replies as a *simulation extra*
/// (PROTOCOL.md §11) — like obs::TraceContext, but travelling in the reply
/// direction — so clients learn validated bindings with zero extra
/// messages.  An all-zero hint means "no hint".
struct BindingHint {
  std::uint32_t server_pid = 0;  ///< receptionist pid of the final server
  std::uint32_t context_id = 0;  ///< context the leaf was dispatched in
  std::uint32_t generation = 0;  ///< that context's generation at dispatch
  std::uint16_t consumed = 0;    ///< name bytes interpreted before the leaf

  [[nodiscard]] bool valid() const noexcept { return server_pid != 0; }
};

/// A received message as seen by the receiver.
struct Envelope {
  ProcessId sender;      ///< who is blocked awaiting the reply
  msg::Message request;  ///< 32-byte request (mutable before Forward)
  Segments segments;     ///< the sender's exposed memory
  /// Fetch-once name attachment (name_span.hpp): empty until the first
  /// server fetches the request's name bytes, then carried by Forward so
  /// every later hop reads the attached bytes instead of re-copying from
  /// the sender's segment.  A host-side optimization only — each hop still
  /// charges the full simulated MoveFrom cost (see Process::fetch_name).
  NameSpan name;
  /// V-trace state, propagated by Send/Forward (NOT paper wire format —
  /// a simulation extra, PROTOCOL.md §10).
  obs::TraceContext trace;
  /// Binding of the context the CLIENT addressed, stamped by the first
  /// server before it forwards (simulation extra, PROTOCOL.md §11).  The
  /// final server echoes it in its reply hint so the client can tie the
  /// terminal binding back to the prefix entry it started from.
  BindingHint origin;
  /// Transaction id of the Send this message belongs to (low 32 bits of
  /// the sender's send sequence; PROTOCOL.md §12).  Stamped by Send,
  /// preserved by Forward, and carried by the reply that names this
  /// envelope: a copy, transfer or reply whose transaction the sender has
  /// moved past is dropped or refused, in every domain.  Under loss
  /// masking it also keys duplicate suppression.
  std::uint32_t txn_seq = 0;
  /// The pid this envelope was delivered to (stamped on arrival).  A reply
  /// or forward from a worker names this envelope, so the kernel finds the
  /// receptionist's transaction slot here.
  ProcessId addressed;
};

namespace detail {

/// Slot sentinel for the Domain's envelope slab and the intrusive mailbox
/// lists threaded through it.
inline constexpr std::uint32_t kNilEnv = 0xffffffffu;

/// One slab slot: an envelope plus the intrusive link that threads it into
/// a free list or a process's mailbox FIFO (mirrors the event loop's
/// action slab, DESIGN.md §4i).  Delivery events carry the 4-byte slot
/// index, so a scheduled packet never drags a fat Envelope through a
/// closure capture.
struct EnvNode {
  Envelope env;
  std::uint32_t next = kNilEnv;
};

/// At-most-once bookkeeping for one client's current transaction at one
/// server (PROTOCOL.md §12), kept only under loss masking.  A server record
/// keeps one slot per client pid; a new transaction id from that client
/// recycles it.  A reply closes the slot at its envelope's `addressed` pid,
/// and only while the slot still holds that envelope's transaction.
struct TxnState {
  enum class Phase : std::uint8_t {
    kPending,    ///< request delivered, no reply or forward yet
    kForwarded,  ///< request forwarded on; duplicates re-drive the forward
    kReplied,    ///< reply sent; duplicates get the cached reply replayed
  };

  std::uint32_t seq = 0;  ///< Envelope::txn_seq this slot covers
  Phase phase = Phase::kPending;
  /// The request bytes this slot answered.  A retransmission is
  /// byte-identical; a same-txn arrival with DIFFERENT bytes is a new
  /// presentation (a forwarding server rewrote index/context before
  /// passing it on — e.g. a group member receiving both the direct
  /// multicast copy and a link-forwarded copy) and must be processed,
  /// not suppressed.
  msg::Message presented;
  // kForwarded: the rewritten envelope and where it went, so a duplicate
  // request can heal a lost server-to-server hop by re-driving it.
  Envelope fwd_env;
  ProcessId fwd_dest;      ///< invalid() when the forward went to a group
  GroupId fwd_group = 0;
  // kReplied: the served reply, replayed verbatim on duplicates.
  msg::Message reply;
  BindingHint hint;
  BindingHint origin;
};

/// Kernel-internal per-process state.  Retained (not freed) after process
/// death so pid lookups and pending resumes stay safe; pids are not reused
/// until 2^16 allocations wrap (paper: "maximize the time before reuse").
struct ProcessRecord {
  ProcessId pid;
  std::string name;          ///< debug label, not a protocol name
  Host* host = nullptr;
  bool alive = true;

  /// Mailbox: an intrusive FIFO of envelope-slab slot indices (EnvNode::
  /// next links them; the envelopes themselves live in the Domain's slab).
  std::uint32_t mbox_head = kNilEnv;
  std::uint32_t mbox_tail = kNilEnv;
  sim::Waker recv_waker;
  bool waiting_receive = false;

  /// Intrusive ledger of NameSpans currently borrowing from this process's
  /// exposed read segment (same-host zero-copy fetches).  Materialized by
  /// Domain::kill_process before the frame those borrows point into can
  /// unwind (see name_span.hpp lifetime rules).
  NameSpan* borrow_head = nullptr;

  // Sender-side blocking state.
  sim::Waker reply_waker;
  msg::Message reply;
  BindingHint reply_hint;    ///< final-binding hint riding the last reply
  BindingHint reply_origin;  ///< origin-binding echo riding the last reply
  bool awaiting_reply = false;
  ProcessId blocked_on;      ///< current holder of our request (updated on
                             ///< forward delivery); used by crash sweeps
  std::uint64_t send_seq = 0;  ///< low 32 bits: the current transaction id
  Segments exposed;            ///< segments of the in-flight send

  /// Observability bookkeeping for the in-flight send: when it started
  /// (SLO latency, watchdog overdue checks) and its opcode (SLO bucket).
  sim::SimTime send_started_at = -1;
  std::uint16_t last_send_code = 0;

  /// Server-side duplicate suppression: one transaction slot per client
  /// pid (see TxnState).  Only populated under a lossy FaultPlan.
  /// Flat map: probed on every delivery under a lossy plan, never erased
  /// per-entry (slots are overwritten per client, cleared on crash).
  FlatMap<std::uint32_t, TxnState> dup_table;

  std::optional<sim::Fiber> fiber;
  /// Raw cache of fiber->state().get(), set once at spawn.  The hot
  /// send/receive path parks against this instead of re-deriving it
  /// through the optional and the shared_ptr (records — and therefore the
  /// FiberState — outlive every pending event; see awaitables.hpp).
  sim::FiberState* fiber_state = nullptr;
  /// Keeps the process body callable (and its captures) alive for the whole
  /// coroutine lifetime: the frame refers to the lambda's captures in place.
  std::function<sim::Co<void>(Process)> body_keepalive;
};

struct Registration {
  ProcessId pid;
  Scope scope;
};

}  // namespace detail

/// Handle a process body uses to invoke kernel primitives.  Cheap to copy;
/// remains valid for the lifetime of the Domain (records are retained).
class Process {
 public:
  Process(Domain* domain, ProcessId pid) noexcept
      : domain_(domain), pid_(pid) {}

  [[nodiscard]] ProcessId pid() const noexcept { return pid_; }
  [[nodiscard]] Domain& domain() const noexcept { return *domain_; }
  V_HOT_PATH
  [[nodiscard]] HostId host_id() const noexcept { return pid_.logical_host(); }
  [[nodiscard]] sim::SimTime now() const noexcept;
  [[nodiscard]] const CalibrationParams& params() const noexcept;

  /// Send a request and block until the reply.  On destination death or
  /// crash the kernel synthesizes a kNoReply reply.
  [[nodiscard]] sim::Co<msg::Message> send(msg::Message request,
                                           ProcessId dest,
                                           Segments segments = {});

  /// Multicast send to a process group.  The first reply wins; later
  /// replies are discarded (V group-send semantics).  Times out with a
  /// kTimeout reply if no member answers.
  [[nodiscard]] sim::Co<msg::Message> send_to_group(msg::Message request,
                                                    GroupId group,
                                                    Segments segments = {});

  /// Receive the next message (blocks if the mailbox is empty).
  [[nodiscard]] sim::Co<Envelope> receive();

  /// Reply to the Send that delivered `env` (V's Reply answers one
  /// outstanding Send).  Non-blocking; delivery is scheduled.  The reply
  /// carries env's transaction id: if the sender has moved on to a newer
  /// Send by the time it lands, it is dropped, never delivered to that Send.
  void reply(const Envelope& env, const msg::Message& reply_msg);

  /// Reply with a piggybacked binding hint (simulation extra, PROTOCOL.md
  /// §11): `hint` is where interpretation ended; the reply also echoes
  /// `env.origin`.  Costs exactly what reply() costs.
  void reply_with_hint(const Envelope& env, const msg::Message& reply_msg,
                       const BindingHint& hint);

  /// The binding hint that rode the reply to this process's last send
  /// (invalid() when the reply carried none — errors, synthesized replies,
  /// non-CSname traffic).
  [[nodiscard]] BindingHint last_binding_hint() const;
  /// The origin-binding echo from the last reply (see Envelope::origin).
  [[nodiscard]] BindingHint last_origin_hint() const;

  /// Forward a received message to another process.  The original sender
  /// stays blocked; `env.request` as passed here (possibly rewritten) is
  /// what the new destination receives.
  void forward(const Envelope& env, ProcessId new_dest);

  /// Forward a received message to every live member of a process group;
  /// the first member to Reply answers the (still blocked) original
  /// sender and later replies are discarded.  This is the paper's
  /// section 7 mechanism: "a single context could be implemented
  /// transparently by a group of servers working in cooperation."  If no
  /// member answers, the sender gets kTimeout after the group timeout.
  void forward_to_group(const Envelope& env, GroupId group);

  /// Copy `dest.size()` bytes from the read segment of `env`'s blocked
  /// sender at `offset` into `dest`.  Charges the calibrated bulk-transfer
  /// time.  Bound to env's transaction: a request can queue at a busy
  /// server long enough for its sender to time out and move on, and a
  /// transfer issued afterwards is refused with kNoReply instead of landing
  /// in whatever segment the sender exposed for its NEXT transaction.
  [[nodiscard]] sim::Co<Result<std::size_t>> move_from(
      const Envelope& env, std::span<std::byte> dest, std::size_t offset = 0);

  /// Copy `src` into the write segment of `env`'s blocked sender at
  /// `offset`.  Same transaction check as move_from.
  [[nodiscard]] sim::Co<Result<std::size_t>> move_to(
      const Envelope& env, std::span<const std::byte> src,
      std::size_t offset = 0);

  /// Fetch the request's character-string name — the first `name_len`
  /// bytes of the blocked sender's read segments — fetch-once style: the
  /// first server to fetch attaches the bytes to `env` (borrowing them
  /// zero-copy when the sender is on this host), Forward carries the
  /// attachment, and later hops reuse it instead of re-copying.  EVERY hop
  /// still charges the full calibrated MoveFrom cost and re-validates the
  /// sender exactly as move_from does, so simulated behavior is
  /// bit-identical to per-hop fetching; only host-side copies (and the
  /// moves/bytes_moved counters, which track real transfers) change.  The
  /// returned view is valid for the rest of the receiving dispatch.
  [[nodiscard]] sim::Co<Result<std::string_view>> fetch_name(
      Envelope& env, std::uint16_t name_len);

  /// Park this process on `queue` until another fiber notifies it (FIFO,
  /// kill-safe).  The intra-team blocking primitive: server worker
  /// processes wait on their team's work queue with this.
  [[nodiscard]] sim::WaitQueue::Awaiter wait_on(sim::WaitQueue& queue) const {
    return queue.wait(fiber_state());
  }

  /// Consume simulated time (CPU work or waiting).
  [[nodiscard]] sim::DelayAwaiter delay(sim::SimDuration d) const;
  /// Semantic alias for CPU cost accounting.
  [[nodiscard]] sim::DelayAwaiter compute(sim::SimDuration d) const {
    return delay(d);
  }

  /// Register `pid` as implementing `service` within `scope` on THIS host.
  void set_pid(ServiceId service, ProcessId pid, Scope scope);

  /// Look up the process registered for `service`.  Checks the local table
  /// first; when that fails and scope permits, performs a (simulated)
  /// network broadcast.  Returns ProcessId::invalid() when nothing matches.
  [[nodiscard]] sim::Co<ProcessId> get_pid(ServiceId service, Scope scope);

  /// Join / leave a process group.
  void join_group(GroupId group);
  void leave_group(GroupId group);

  /// Observer handle for this process's fiber (kill flag).  Custom
  /// awaitables built outside the kernel (server-team gates and wait
  /// queues) capture it so a resume after kill throws FiberKilled.  Raw
  /// pointer: the state outlives every pending event (awaitables.hpp).
  [[nodiscard]] sim::FiberState* fiber_state() const;

 private:
  detail::ProcessRecord& record() const;

  Domain* domain_;
  ProcessId pid_;
};

/// One logical host: a kernel instance with its own process table slice and
/// service registry.
class Host {
 public:
  Host(Domain& domain, HostId id, std::string name);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] HostId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool alive() const noexcept { return alive_; }
  [[nodiscard]] Domain& domain() noexcept { return domain_; }

  /// Create a process running `body`.  The body starts at the current
  /// simulated time via a scheduled event.  Returns its pid immediately.
  ProcessId spawn(std::string name,
                  std::function<sim::Co<void>(Process)> body);

  /// Spawn `count` processes forming one server team (paper section 3:
  /// "a server is typically implemented as a team of processes" so one
  /// slow request does not stall the service).  Members are named
  /// "`base`.N" and each body receives its member index.  All members run
  /// on this host and die with it on crash — exactly a V team's fate.
  std::vector<ProcessId> spawn_team(
      const std::string& base, std::size_t count,
      std::function<sim::Co<void>(Process, std::size_t)> body);

  /// Crash this host: every process dies, registrations vanish, blocked
  /// remote senders get kNoReply, in-flight messages to it are dropped.
  void crash();

  /// Bring a crashed host back (empty process table; servers must be
  /// respawned and re-register, which is the paper's rebinding story).
  void restart();

  /// Suspend packet arrival at this host: requests and replies addressed
  /// to its processes queue instead of landing (a transient partition /
  /// unresponsive host, as a FaultPlan kPause event).  Local execution
  /// continues.  resume() flushes the queued packets in arrival order.
  void pause();
  void resume();
  [[nodiscard]] bool paused() const noexcept { return paused_; }

  /// Local service registry (used by Process::set_pid/get_pid).
  void register_service(ServiceId service, ProcessId pid, Scope scope);
  [[nodiscard]] ProcessId lookup_local(ServiceId service) const;
  [[nodiscard]] ProcessId lookup_remote(ServiceId service) const;

  /// Number of processes ever spawned (dead ones included).
  [[nodiscard]] std::size_t processes_spawned() const noexcept {
    return spawned_;
  }

 private:
  friend class Domain;

  Domain& domain_;
  HostId id_;
  std::string name_;
  bool alive_ = true;
  bool paused_ = false;
  /// Packets that arrived while paused, flushed FIFO by resume().
  // Pause stash: packets are InlineActions (not std::function) so an
  // Envelope-carrying packet never round-trips through a heap allocation
  // between stash and re-schedule.
  std::vector<sim::EventLoop::Action> stash_;
  std::uint16_t next_local_pid_;
  std::size_t spawned_ = 0;
  // Flat map: GetPid probes this on every service lookup; registrations
  // are tiny and never individually erased (crash clears wholesale).
  FlatMap<ServiceId, detail::Registration> services_;
};

/// Transport-level counters for one domain run.  Structural quantities
/// (message counts, forwards, bytes moved) that hold independent of any
/// calibration — benches report them alongside simulated latencies.
struct DomainStats {
  std::uint64_t messages_sent = 0;     ///< request deliveries attempted
  std::uint64_t replies_sent = 0;      ///< reply deliveries attempted
  std::uint64_t forwards = 0;          ///< Forward / group-forward fan-outs
  std::uint64_t remote_messages = 0;   ///< requests that crossed hosts
  std::uint64_t moves = 0;             ///< MoveTo + MoveFrom operations
  std::uint64_t bytes_moved = 0;       ///< segment bytes transferred
};

/// One V installation: hosts + network + event loop + cost model.
class Domain {
 public:
  explicit Domain(
      CalibrationParams params = CalibrationParams::SunWorkstation3Mbit(),
      std::uint64_t seed = 0x1984'0601ULL);
  ~Domain();
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  /// Add a logical host to the domain.  References stay valid for the
  /// Domain's lifetime.
  Host& add_host(std::string name);

  [[nodiscard]] sim::EventLoop& loop() noexcept { return loop_; }
  [[nodiscard]] sim::Rng& rng() noexcept { return rng_; }
  [[nodiscard]] const CalibrationParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] sim::SimTime now() const noexcept { return loop_.now(); }

  /// Run the simulation until no events remain.
  void run() { loop_.run_until_idle(); }

  [[nodiscard]] const std::vector<std::unique_ptr<Host>>& hosts()
      const noexcept {
    return hosts_;
  }

  /// Debug label of a process ("" if unknown).
  [[nodiscard]] std::string process_name(ProcessId pid) const;
  /// Is the process currently alive?
  [[nodiscard]] bool process_alive(ProcessId pid) const;

  /// Transport counters accumulated since construction.
  [[nodiscard]] const DomainStats& stats() const noexcept { return stats_; }

  /// Next value of the domain-wide name-space generation sequence.  Every
  /// context-generation assignment (server start and every gated mutation)
  /// draws from this one monotone counter, so a generation can never recur
  /// across server incarnations — a restarted (or impostor) server's
  /// contexts always mismatch a cached generation instead of silently
  /// aliasing it (the paper-§2.2 hazard).  Never returns 0 ("no
  /// expectation" on the wire).
  [[nodiscard]] std::uint32_t next_name_generation() noexcept {
    return ++name_generation_;
  }

  /// Count of fibers that died with an unexpected exception (tests assert
  /// this stays zero).
  [[nodiscard]] std::size_t process_failures() const noexcept {
    return failures_;
  }
  /// Human-readable description of the first failure, for diagnostics.
  [[nodiscard]] const std::string& first_failure() const noexcept {
    return first_failure_;
  }

  /// V-check protocol conformance lint at the Send/Reply boundary.
  [[nodiscard]] chk::ProtocolLint& lint() noexcept { return lint_; }
  [[nodiscard]] const chk::ProtocolLint& lint() const noexcept {
    return lint_;
  }

  /// V-trace resolution-trace sink (inactive until tracer().enable()).
  [[nodiscard]] obs::TraceSink& tracer() noexcept { return tracer_; }
  [[nodiscard]] const obs::TraceSink& tracer() const noexcept {
    return tracer_;
  }
  /// V-trace metrics registry.  The DomainStats fields, event-loop stats
  /// and protocol-lint counters are mirrored in as "ipc/...", "loop/..."
  /// and "lint/..." callback entries; servers register their own scopes.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// V-blackbox flight recorder: always-on per-host rings of compact
  /// event records, dumped on failure triggers (obs/flight.hpp).
  [[nodiscard]] obs::FlightRecorder& flight() noexcept { return flight_; }
  [[nodiscard]] const obs::FlightRecorder& flight() const noexcept {
    return flight_;
  }

  /// Give `code` a latency SLO: every completed Send of that opcode
  /// counts as within/over `budget` (simulated ns), readable as
  /// `[metrics] slo/<opcode>.within` and `.over`.
  void set_latency_slo(std::uint16_t code, sim::SimDuration budget);
  [[nodiscard]] const obs::SloTracker& slo() const noexcept { return slo_; }

  /// Arm the event-loop watchdog: every `period` (default threshold/2) a
  /// scheduled scan looks for a fiber blocked in Send longer than
  /// `threshold` simulated time; the first such fiber records a
  /// kWatchdog flight event, fires a dump trigger, and disarms the
  /// watchdog (one trip per arm).  CSNH gate releases also compare their
  /// hold time against `threshold`.  OPT-IN because the scan schedules
  /// real events: the event sequence (and thus fuzz tie-breaking) shifts,
  /// so runs with the watchdog are deterministic per seed but not
  /// bit-comparable to runs without it.
  void enable_watchdog(sim::SimDuration threshold,
                       sim::SimDuration period = 0);
  [[nodiscard]] sim::SimDuration watchdog_threshold() const noexcept {
    return wd_threshold_;
  }
  [[nodiscard]] std::uint64_t watchdog_trips() const noexcept {
    return wd_trips_;
  }

  /// Arm the V-fault machinery: schedule the plan's host lifecycle events
  /// and decide once, from FaultPlan::lossless(), whether to arm loss
  /// masking: link verdicts on every remote packet, retransmission under
  /// the RetryPolicy and duplicate suppression.  The transaction rule
  /// itself is the kernel's and holds with or without a plan.  Freezes the
  /// plan's links.  The plan must outlive the run; its FaultStats are
  /// mirrored into the metrics registry as "fault/..." entries.
  void install_faults(fault::FaultPlan& plan);
  /// True when the installed plan's links can fault, so Sends are covered
  /// by retransmission and duplicate suppression.
  [[nodiscard]] bool loss_masking() const noexcept { return loss_masking_; }
  [[nodiscard]] fault::FaultPlan* fault_plan() noexcept { return fault_plan_; }

  /// One row of the event-loop profile: host CPU attributed to a fiber.
  struct FiberHotspot {
    std::string name;
    std::uint32_t pid = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t wall_ns = 0;
  };
  /// The k fibers that burned the most host CPU, descending.
  [[nodiscard]] std::vector<FiberHotspot> top_fibers(std::size_t k) const;

 private:
  friend class Host;
  friend class Process;

  detail::ProcessRecord* find(ProcessId pid);
  const detail::ProcessRecord* find(ProcessId pid) const;
  detail::ProcessRecord& create_record(Host& host, std::string name);

  // --- envelope slab (see detail::EnvNode) ---------------------------------
  V_HOT_PATH
  detail::EnvNode& env_node(std::uint32_t slot) noexcept {
    return env_chunks_[slot >> kEnvChunkBits]
                      [slot & ((1u << kEnvChunkBits) - 1)];
  }
  V_HOT_PATH
  std::uint32_t env_acquire() {
    if (env_free_ == detail::kNilEnv)
      grow_env_slab();  // vlint: allow(hot-path-alloc): cold growth branch
    const std::uint32_t slot = env_free_;
    detail::EnvNode& node = env_node(slot);
    env_free_ = node.next;
    node.next = detail::kNilEnv;
    return slot;
  }
  V_HOT_PATH
  void env_release(std::uint32_t slot) noexcept {
    detail::EnvNode& node = env_node(slot);
    // Drop the name now (frees a borrow's ledger slot / recycles a pooled
    // block); the rest of the envelope is overwritten on reuse.
    node.env.name.reset();
    node.next = env_free_;
    env_free_ = slot;
  }
  /// Cold: add one chunk of slab capacity to the free list.
  void grow_env_slab();

  /// Schedule delivery of `env` to `dest` after the appropriate hop delay
  /// from `from_host`.  Handles dead destinations with synthesized replies.
  void deliver(HostId from_host, Envelope env, ProcessId dest);
  /// As above; group sends pass synth_on_dead=false so a dead member does
  /// not beat a live member's real reply.
  void deliver(HostId from_host, Envelope env, ProcessId dest,
               bool synth_on_dead);

  /// Schedule delivery of `from`'s reply to the Send that delivered `env`,
  /// stamped with env's transaction id.  `hint`/`origin` are the
  /// piggybacked binding hints ({} for unhinted replies); they ride the
  /// scheduled delivery and cost nothing.
  void deliver_reply(HostId from_host, const msg::Message& reply,
                     const Envelope& env, ProcessId from,
                     const BindingHint& hint, const BindingHint& origin);

  /// Synthesize a failure reply (kNoReply etc.) to a blocked sender, at a
  /// hop's delay.  `answered_seq` is the transaction it answers: the reply
  /// is dropped if the sender has moved past it by then.
  void synth_reply(ProcessId to, ReplyCode code, std::uint32_t answered_seq);
  /// Answer `to`'s transaction `txn` with kTimeout after `after`, unless it
  /// was answered or superseded first (group sends and group forwards).
  void schedule_timeout(ProcessId to, std::uint32_t txn,
                        sim::SimDuration after);

  /// A request packet landing at its destination host (after the hop delay
  /// and any fault verdicts).  Runs the transaction rule, duplicate
  /// suppression (loss masking only) and lint, then enqueues into the
  /// mailbox.  The envelope is slab slot `slot`; accepted packets are
  /// linked into the destination's mailbox in place, rejected ones release
  /// the slot.
  void arrive_slot(std::uint32_t slot, ProcessId dest, bool synth_on_dead);
  /// Re-entry shim for packets that left the slab (pause-stash flushes):
  /// re-acquires a slot and lands through arrive_slot.
  void arrive(Envelope env, ProcessId dest, bool synth_on_dead);
  /// Put one reply packet on the wire toward `to`, applying fault verdicts.
  /// `answered_seq` is the transaction the reply answers.
  void send_reply_packet(HostId from_host, const msg::Message& reply,
                         ProcessId to, const BindingHint& hint,
                         const BindingHint& origin,
                         std::uint32_t answered_seq);
  /// A reply packet landing at the blocked sender's host: drops replies to
  /// superseded transactions, stashes under pause, else completes.
  void arrive_reply(ProcessId to, const msg::Message& reply,
                    const BindingHint& hint, const BindingHint& origin,
                    std::uint32_t answered_seq);
  /// The transaction rule (PROTOCOL.md §12): true when `txn` is still the
  /// current transaction of process `rec`, i.e. its latest Send.  Request
  /// arrival, Move*/fetch_name, reply arrival, timeouts and retransmits all
  /// ask this one question; a null record has no current transaction.
  V_HOT_PATH
  static bool current_txn(const detail::ProcessRecord* rec,
                          std::uint32_t txn) noexcept {
    return rec != nullptr && static_cast<std::uint32_t>(rec->send_seq) == txn;
  }
  /// True (and, under a plan, counted) when a reply stamped `answered_seq`
  /// answers a transaction `rec` has moved past.
  bool stale_reply(const detail::ProcessRecord* rec,
                   std::uint32_t answered_seq);

  void complete_reply(ProcessId to, const msg::Message& reply,
                      const BindingHint& hint = {},
                      const BindingHint& origin = {});
  void kill_process(detail::ProcessRecord& rec);

  /// Client-side retransmission: re-deliver a copy of the send every
  /// (backed-off) timeout until the transaction closes or the budget is
  /// exhausted, then surface kNoReply.
  void arm_retransmit(const Envelope& env, ProcessId dest);
  void schedule_retransmit(Envelope env, ProcessId dest,
                           sim::SimDuration timeout, std::uint32_t remaining);
  /// Server-side at-most-once filter.  True = the envelope was a duplicate
  /// and has been fully handled (suppressed / forward re-driven / cached
  /// reply replayed); false = genuinely new, deliver it.
  bool suppress_duplicate(detail::ProcessRecord& server, const Envelope& env);
  /// Record that the received envelope was forwarded (rewritten as `env`),
  /// so a duplicate of the original request re-drives the forward.
  void note_forward(const Envelope& env, ProcessId new_dest, GroupId group);
  /// Record a reply to `env` in the transaction slot it answers (at
  /// env.addressed), if that slot still holds env's transaction.
  void record_served_reply(const Envelope& env, const msg::Message& reply,
                           const BindingHint& hint, const BindingHint& origin);

  CalibrationParams params_;
  sim::EventLoop loop_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Host>> hosts_;
  // Stable storage: records never move or die before the Domain does.
  std::vector<std::unique_ptr<detail::ProcessRecord>> records_;
  // Open-addressing flat map: pid lookup is on every deliver/reply/move
  // hot path; one probe normally hits one cache line instead of chasing a
  // bucket pointer.  Pids carry no useful ordering (allocated randomly).
  FlatMap<std::uint32_t, detail::ProcessRecord*> by_pid_;
  // Multicast order is NOT this table's order: each group's members live
  // in an insertion-ordered vector, so fan-out is deterministic no matter
  // how the group ids hash.
  FlatMap<GroupId, std::vector<ProcessId>> groups_;
  // Envelope slab (mirrors the event loop's action slab): chunked stable
  // storage recycled through a free list, so in-flight and queued
  // envelopes never churn the allocator and delivery closures stay tiny.
  static constexpr std::uint32_t kEnvChunkBits = 9;  // 512 envelopes/chunk
  std::vector<std::unique_ptr<detail::EnvNode[]>> env_chunks_;
  std::uint32_t env_free_ = detail::kNilEnv;
  DomainStats stats_;
  std::uint32_t name_generation_ = 0;
  std::size_t failures_ = 0;
  std::string first_failure_;
  chk::ProtocolLint lint_;
  obs::TraceSink tracer_;
  obs::MetricsRegistry metrics_;
  obs::FlightRecorder flight_;
  obs::SloTracker slo_;
  // Watchdog state (enable_watchdog): scans are self-rescheduling events
  // that go dormant when nothing is blocked, so an idle loop still drains.
  void watchdog_scan();
  void arm_watchdog(sim::SimTime at);
  sim::SimDuration wd_threshold_ = 0;  ///< 0 = watchdog disabled
  sim::SimDuration wd_period_ = 0;
  bool wd_armed_ = false;
  std::uint64_t wd_trips_ = 0;
  fault::FaultPlan* fault_plan_ = nullptr;
  /// The installed plan can drop, duplicate or reorder (install_faults).
  bool loss_masking_ = false;
  bool fault_metrics_registered_ = false;
};

}  // namespace v::ipc
