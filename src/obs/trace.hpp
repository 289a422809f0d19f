// V-trace resolution tracing (observability layer).
//
// The paper's central mechanism — a CSname request wandering server to
// server via Forward until someone answers — is exactly the behavior that
// is invisible in aggregate counters.  V-trace records the path: the kernel
// opens a root span when a traced process Sends, every CSNH server opens a
// hop span (split into queue-wait and service segments) when it dispatches
// the request, and forwarding re-parents the next hop under the current
// one, so a completed request yields a causally-ordered hop tree.
//
// Spans carry SIMULATED time only and recording never consumes simulated
// time, so enabling a TraceSink cannot change a single measured number
// (Trace.FullSamplingLeavesSimulatedResultsUnchanged and the `ci.sh obs`
// traced/untraced report diff hold it to that).
//
// Exports: Chrome trace-event JSON (load trace.json in Perfetto / about:
// tracing; `ts`/`dur` are simulated microseconds) and an indented text
// rendering for terminals and tests.
//
// The runtime switches are TraceSink::enable() and the sampler's rates; an
// idle sink costs one `active()` test per send.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/annotate.hpp"
#include "obs/flight.hpp"
#include "sim/time.hpp"

namespace v::obs {

/// Human label for a request code.  Standard protocol codes return views
/// over static string literals (no allocation, no copy); unknown codes
/// render as "op-0x####" interned once per code, so every returned view is
/// valid for the life of the process.
std::string_view opcode_label(std::uint16_t code);

/// Low-level Chrome trace-event JSON emitters.  Both renderers — the
/// TraceSink hop trees and the FlightRecorder ring dumps — go through
/// these, so a flight dump loads in Perfetto exactly like a trace and the
/// document shape is defined in one place.  arg() must only be called
/// between begin_complete() and end_complete().
namespace chrome {
std::string escape(std::string_view in);
void begin_doc(std::string& out, std::string_view process_name);
void thread_meta(std::string& out, std::uint32_t tid, std::string_view name);
void begin_complete(std::string& out, double ts_us, double dur_us,
                    std::uint32_t tid, std::string_view name,
                    std::string_view category);
void arg(std::string& out, std::string_view key, std::string_view value);
void end_complete(std::string& out);
void end_doc(std::string& out);
}  // namespace chrome

/// Trace state carried inside ipc::Envelope and propagated by Send /
/// Forward / forward_to_group.  NOT part of the paper's 32-byte wire
/// format — a simulation extra, documented as such in PROTOCOL.md §10.
///
/// The sampled bit is the head-based sampling decision: set once at the
/// root span by SamplePolicy::decide() (flight.hpp) and then only copied,
/// so a request is traced end-to-end or not at all.  trace_id stays 0 for
/// unsampled requests — every downstream hop guard already checks it.
struct TraceContext {
  static constexpr std::uint8_t kSampled = 0x01;

  std::uint64_t trace_id = 0;    ///< 0 = request is not being traced
  std::uint32_t parent_span = 0; ///< span the next hop hangs under
  sim::SimTime enqueued_at = -1; ///< kernel delivery time (queue-wait start)
  std::uint8_t flags = 0;        ///< kSampled when the head decision kept it

  [[nodiscard]] bool sampled() const noexcept {
    return (flags & kSampled) != 0;
  }
  void set_sampled() noexcept { flags |= kSampled; }
};

/// One node of the hop tree.
struct Span {
  std::uint64_t trace_id = 0;
  std::uint32_t id = 0;      ///< 1-based; also index+1 into TraceSink::spans
  std::uint32_t parent = 0;  ///< 0 = root
  sim::SimTime start = 0;
  sim::SimTime end = -1;     ///< -1 while still open
  std::string name;          ///< e.g. "send open", "hop alpha-fs", "queue"
  std::string category;      ///< "send" | "hop" | "queue" | "service" | "mark"
  std::uint32_t pid = 0;     ///< process the span is attributed to
  std::vector<std::pair<std::string, std::string>> args;
};

/// Per-Domain span collector.  Inert until enable(); all times are
/// simulated, so collection never perturbs the run.
class TraceSink {
 public:
  void enable() noexcept { active_ = true; }
  void disable() noexcept { active_ = false; }
  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Allocate a fresh trace id (one per traced Send).
  std::uint64_t begin_trace() { return next_trace_++; }

  std::uint32_t begin_span(std::uint64_t trace_id, std::uint32_t parent,
                           std::string name, std::string category,
                           std::uint32_t pid, sim::SimTime start);
  void end_span(std::uint32_t id, sim::SimTime end);
  void annotate(std::uint32_t id, std::string key, std::string value);

  /// Remember a display label for a pid (Chrome thread_name metadata).
  void set_process_label(std::uint32_t pid, std::string_view label);

  // Root-span bookkeeping for kernel sends.  A V process has exactly one
  // outstanding Send, so the open root span is keyed by the sender's pid.
  void note_send(std::uint32_t sender_pid, std::uint32_t span_id);
  [[nodiscard]] std::uint32_t open_send(std::uint32_t sender_pid) const;
  /// Close the sender's root span (no-op when it has none open).  The
  /// empty check is inline: this sits on every reply delivery, and with
  /// the tracer idle (the default) the map is empty — no hash probe, no
  /// out-of-line call.
  V_HOT_PATH
  void end_send(std::uint32_t sender_pid, std::uint16_t reply_code,
                sim::SimTime now) {
    if (open_sends_.empty()) return;
    // vlint: allow(hot-path-alloc): only while the tracer is active (a root span is open)
    end_send_slow(sender_pid, reply_code, now);
  }

  /// Head-based sampling policy (kernel consults it at the root span).
  [[nodiscard]] SamplePolicy& sampler() noexcept { return sampler_; }
  [[nodiscard]] const SamplePolicy& sampler() const noexcept {
    return sampler_;
  }

  /// Tail record for an anomaly the head decision skipped: a failed send
  /// whose envelope was unsampled still leaves a closed "mark" span (its
  /// hops are gone — head sampling cannot resurrect them — but the error,
  /// its latency, and its trace-less-ness are on the timeline, and the
  /// flight recorder has the per-host event stream).
  void note_error_reply(std::uint32_t sender_pid, std::uint16_t reply_code,
                        sim::SimTime started, sim::SimTime now);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const Span* find(std::uint32_t id) const noexcept {
    return id >= 1 && id <= spans_.size() ? &spans_[id - 1] : nullptr;
  }
  [[nodiscard]] std::uint64_t trace_count() const noexcept {
    return next_trace_ - 1;
  }

  /// Indented text rendering of one trace's hop tree.
  [[nodiscard]] std::string render_text(std::uint64_t trace_id) const;
  /// All traces as one Chrome trace-event JSON document.
  [[nodiscard]] std::string chrome_json() const;
  /// Write chrome_json() to `path`.  Returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

  void clear();

 private:
  [[nodiscard]] Span* find_mut(std::uint32_t id) noexcept {
    return id >= 1 && id <= spans_.size() ? &spans_[id - 1] : nullptr;
  }

  void end_send_slow(std::uint32_t sender_pid, std::uint16_t reply_code,
                     sim::SimTime now);

  bool active_ = false;
  std::uint64_t next_trace_ = 1;
  std::vector<Span> spans_;
  std::unordered_map<std::uint32_t, std::uint32_t> open_sends_;
  std::unordered_map<std::uint32_t, std::string> process_labels_;
  SamplePolicy sampler_;
};

}  // namespace v::obs
