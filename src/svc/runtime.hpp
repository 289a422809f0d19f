// The standard run-time routines (paper section 6).
//
// "Application programs are written using a procedural interface to system
// services provided by a collection of stub routines."  Rt is that
// collection for one program:
//
//   * it carries the program's current context (a program "is passed a
//     process identifier and context identifier specifying its current
//     context" and can change it, like Unix chdir);
//   * every CSname stub checks whether the name starts with the standard
//     context prefix character '[' — if so the request goes to the
//     workstation's context prefix server, otherwise straight to the server
//     implementing the current context (the '['-check localized here is the
//     paper's "single common routine").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "ipc/kernel.hpp"
#include "msg/csname.hpp"
#include "msg/message.hpp"
#include "naming/descriptor.hpp"
#include "naming/types.hpp"
#include "svc/file.hpp"
#include "svc/name_cache.hpp"

namespace v::svc {

/// A program's naming environment.
struct NameEnv {
  ipc::ProcessId prefix_server;   ///< this workstation's context prefix server
  naming::ContextPair current;    ///< current context
};

/// How the run-time reacts when an open dies with a transport-level error
/// (kNoReply / kTimeout) or a binding-level one (kInvalidContext) — the
/// paper's §2.3/§4 repair story.
struct RecoveryPolicy {
  /// Full re-resolutions attempted after the first one fails with a
  /// TRANSPORT error (kNoReply / kTimeout — a lost race with a crash, or
  /// an unanswered multicast).  The default (1) is the classic run-time
  /// behaviour: try the same route once more before giving up.
  /// kInvalidContext is authoritative and never retried on the same
  /// route — it goes straight to rebinding.
  std::size_t noreply_retries = 1;
  /// Server group probed by multicast after the retries are spent
  /// (kGetContextId-style kMapContextName recovery probe; the member that
  /// now implements the directory answers, the rest stay silent).  0 =
  /// no rebinding; the last error is surfaced unchanged.
  ipc::GroupId rebind_group = 0;
};

class Rt {
 public:
  Rt(ipc::Process self, NameEnv env) noexcept : self_(self), env_(env) {}

  /// Build an Rt by resolving the local context prefix server with GetPid.
  /// `current` is the program's initial current context.
  [[nodiscard]] static sim::Co<Rt> attach(ipc::Process self,
                                          naming::ContextPair current);

  [[nodiscard]] const naming::ContextPair& current() const noexcept {
    return env_.current;
  }
  void set_current(naming::ContextPair ctx) noexcept { env_.current = ctx; }
  [[nodiscard]] ipc::ProcessId prefix_server() const noexcept {
    return env_.prefix_server;
  }
  [[nodiscard]] ipc::Process process() const noexcept { return self_; }

  /// Attach (or detach, with nullptr) a validated name cache.  While a
  /// cache is attached, `open` consults it: a warm hit goes straight to
  /// the cached final server in ONE message transaction, validated by the
  /// expected-generation check (PROTOCOL.md 11); refusals fall back to a
  /// full resolution transparently.  Every hinted reply also feeds the
  /// cache.  Detached (the default), the send paths are byte-for-byte the
  /// uncached protocol.
  void set_cache(NameCache* cache);
  [[nodiscard]] NameCache* cache() const noexcept { return cache_; }

  /// Configure open-failure recovery (retries + multicast rebinding).
  void set_recovery(RecoveryPolicy policy) noexcept { recovery_ = policy; }
  [[nodiscard]] const RecoveryPolicy& recovery() const noexcept {
    return recovery_;
  }

  // --- core routing ----------------------------------------------------------

  /// Send a CSname request carrying `name` (plus optional payload bytes
  /// after the name in the read segment, and a write segment for bulk
  /// replies), routed per the prefix convention.  Sets the standard CSname
  /// fields; the caller fills the variant part.
  [[nodiscard]] sim::Co<msg::Message> send_csname(
      msg::Message request, std::string_view name,
      std::span<const std::byte> payload = {},
      std::span<std::byte> write_segment = {});

  // --- file-like objects -------------------------------------------------------

  /// Open `name` (kCreateInstance).  Mode bits: naming::wire::OpenMode.
  [[nodiscard]] sim::Co<Result<File>> open(std::string_view name,
                                           std::uint16_t mode);

  /// An open result plus the (server, context) the leaf was interpreted
  /// in — what a name cache remembers for the directory part.
  struct OpenedFile {
    File file;
    naming::ContextPair directory;
  };
  [[nodiscard]] sim::Co<Result<OpenedFile>> open_detailed(
      std::string_view name, std::uint16_t mode);

  /// One-hop kCreateInstance addressed straight at `target` instead of
  /// routing by the '['-convention: the server interprets only
  /// name[name_index..] in target.context, validated against
  /// `expected_generation` (0 = no expectation).  Returns the raw reply;
  /// decode successes with decode_open_reply.  This is the shared substrate
  /// of cached opens and of shard-map routing (svc/shard_router.hpp), which
  /// both learn (server, context, generation) bindings out of band and must
  /// have them REFUSED — kStaleContext — rather than wrongly served when
  /// the binding has gone stale.
  [[nodiscard]] sim::Co<msg::Message> open_at(naming::ContextPair target,
                                              std::string_view name,
                                              std::uint16_t name_index,
                                              std::uint16_t mode,
                                              std::uint32_t expected_generation);

  /// Decode a successful (kOk) kCreateInstance reply.
  [[nodiscard]] static OpenedFile decode_open_reply(ipc::Process self,
                                                    const msg::Message& reply);

  /// Open with a temporarily-attached name cache: equivalent to
  /// set_cache(&cache), open(name, mode), restore.  Kept as the
  /// entry point of the section 2.2 caching study — now validated, so a
  /// hit that outlived a mutation yields kStaleContext + re-resolution
  /// instead of the silent wrong answers the paper warned about.
  [[nodiscard]] sim::Co<Result<File>> open_cached(NameCache& cache,
                                                  std::string_view name,
                                                  std::uint16_t mode);

  /// Open the context directory of `name` ("" = current context) and read
  /// all its description records (the "list directory" flow of section 6).
  [[nodiscard]] sim::Co<Result<std::vector<naming::ObjectDescriptor>>>
  list_context(std::string_view name = "");

  /// Section 5.6 pattern extension: read only the records of `ctx_name`
  /// whose names match the glob `pattern` — the server filters before
  /// fabricating and shipping anything.
  [[nodiscard]] sim::Co<Result<std::vector<naming::ObjectDescriptor>>>
  list_matching(std::string_view ctx_name, std::string_view pattern);

  // --- names and contexts --------------------------------------------------------

  /// Map a context-naming CSname to its (server-pid, context-id) pair.
  [[nodiscard]] sim::Co<Result<naming::ContextPair>> map_context(
      std::string_view name);

  /// Change the current context ("analogous to the change directory
  /// function in Unix").
  [[nodiscard]] sim::Co<ReplyCode> change_context(std::string_view name);

  /// Query the named object's description record.
  [[nodiscard]] sim::Co<Result<naming::ObjectDescriptor>> query(
      std::string_view name);

  /// Overwrite the named object's modifiable description fields.
  [[nodiscard]] sim::Co<ReplyCode> modify(
      std::string_view name, const naming::ObjectDescriptor& desc);

  [[nodiscard]] sim::Co<ReplyCode> remove(std::string_view name);
  [[nodiscard]] sim::Co<ReplyCode> rename(std::string_view name,
                                          std::string_view new_leaf);
  [[nodiscard]] sim::Co<ReplyCode> create(std::string_view name,
                                          std::uint16_t mode = 0);
  [[nodiscard]] sim::Co<ReplyCode> make_context(std::string_view name);

  /// Bind `name` inside its server's name space to `target` — a
  /// cross-server context pointer (Figure 4's curved arrow).
  [[nodiscard]] sim::Co<ReplyCode> link(std::string_view name,
                                        naming::ContextPair target);

  // --- context prefix management (optional protocol ops) -----------------------

  /// Define "[prefix]..." to name `target` (sent to the prefix server).
  [[nodiscard]] sim::Co<ReplyCode> add_prefix(std::string_view prefix,
                                              naming::ContextPair target);

  /// Define a logical prefix bound to a *service*: the prefix server
  /// performs GetPid each time the name is used (paper section 6).
  [[nodiscard]] sim::Co<ReplyCode> add_logical_prefix(
      std::string_view prefix, ipc::ServiceId service,
      naming::ContextId context = naming::kDefaultContext);

  /// Define a prefix naming a context implemented by a process GROUP
  /// (paper section 7): requests multicast to the group; the first member
  /// to answer wins.
  [[nodiscard]] sim::Co<ReplyCode> add_group_prefix(
      std::string_view prefix, ipc::GroupId group,
      naming::ContextId context = naming::kDefaultContext);

  [[nodiscard]] sim::Co<ReplyCode> delete_prefix(std::string_view prefix);

  // --- inverse mappings ---------------------------------------------------------

  /// Name of a context from its (server, id) pair — may fail with
  /// kNoInverse (section 6 discusses why).
  [[nodiscard]] sim::Co<Result<std::string>> context_name(
      naming::ContextPair ctx);

  /// Name of an open instance (the "absolute name of an open file").
  [[nodiscard]] sim::Co<Result<std::string>> file_name(
      ipc::ProcessId server, io::InstanceId instance);

 private:
  /// A name's directory part and the index where its leaf starts.
  struct SplitName {
    std::string_view dir;
    std::size_t leaf_start;
  };
  static SplitName split_dir_leaf(std::string_view name);
  static std::string bracket(std::string_view prefix);

  /// The one learn step: cache `split.dir` -> the last reply's binding
  /// hint (tied to `origin`), when a cache is attached and the server's
  /// leaf boundary agrees with `split`.
  void learn(std::string_view name, SplitName split,
             const ipc::BindingHint& origin);
  /// Full-resolution open (the pre-cache path), learning from its reply.
  [[nodiscard]] sim::Co<Result<OpenedFile>> open_resolved(
      std::string_view name, std::uint16_t mode);
  /// One-hop open against a cached binding, validated by expected
  /// generation.  kStaleContext/kInvalidContext/kNoReply mean the binding
  /// must be dropped; any other outcome is authoritative.
  [[nodiscard]] sim::Co<Result<OpenedFile>> open_via_binding(
      std::string_view name, std::uint16_t mode,
      const NameCache::Binding& binding, SplitName split);
  /// Feed piggybacked binding/origin hints of the last reply to the cache.
  void observe_reply_hints();
  /// Multicast-rebind open (paper §4): probe recovery_.rebind_group with a
  /// recovery-marked kMapContextName for the directory part, then open the
  /// leaf one hop (open_at) against whichever member answered.  Returns
  /// `original` when nobody answers (the probe changed nothing).
  [[nodiscard]] sim::Co<Result<OpenedFile>> open_via_rebind(
      std::string_view name, std::uint16_t mode, ReplyCode original);
  /// One inverse-mapping transaction (GetContextName / GetFileName): send
  /// `request` to `server` and read back the name it writes.
  [[nodiscard]] sim::Co<Result<std::string>> inverse_name(
      msg::Message request, ipc::ProcessId server);

  /// Bump the "namecache" registry counter `name` through handle `slot`,
  /// resolving it on first use: the entry appears at the same moment the
  /// string-keyed probe created it, later bumps are one pointer increment.
  void count_cache_event(obs::Counter*& slot, std::string_view name);

  ipc::Process self_;
  NameEnv env_;
  NameCache* cache_ = nullptr;
  RecoveryPolicy recovery_;
  obs::Counter* m_cache_hits_ = nullptr;
  obs::Counter* m_cache_misses_ = nullptr;
  obs::Counter* m_cache_stale_ = nullptr;
  obs::Counter* m_cache_fallbacks_ = nullptr;
};

}  // namespace v::svc
