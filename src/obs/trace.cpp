#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "msg/request_codes.hpp"

namespace v::obs {

namespace {

std::string format_ms(sim::SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", sim::to_ms(t));
  return buf;
}

}  // namespace

namespace chrome {

/// Escape a string for embedding in a JSON string literal.
std::string escape(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void begin_doc(std::string& out, std::string_view process_name) {
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out += "  {\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, "
         "\"tid\": 0, \"args\": {\"name\": \"";
  out += escape(process_name);
  out += "\"}}";
}

void thread_meta(std::string& out, std::uint32_t tid, std::string_view name) {
  char head[96];
  std::snprintf(head, sizeof head,
                ",\n  {\"ph\": \"M\", \"name\": \"thread_name\", "
                "\"pid\": 1, \"tid\": %u, \"args\": {\"name\": \"",
                tid);
  out += head;
  out += escape(name);
  out += "\"}}";
}

void begin_complete(std::string& out, double ts_us, double dur_us,
                    std::uint32_t tid, std::string_view name,
                    std::string_view category) {
  char head[160];
  std::snprintf(head, sizeof head,
                ",\n  {\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                "\"pid\": 1, \"tid\": %u, ",
                ts_us, dur_us, tid);
  out += head;
  out += "\"name\": \"";
  out += escape(name);
  out += "\", \"cat\": \"";
  out += escape(category);
  out += "\", \"args\": {";
}

void arg(std::string& out, std::string_view key, std::string_view value) {
  if (!out.empty() && out.back() != '{') out += ", ";
  out += "\"";
  out += escape(key);
  out += "\": \"";
  out += escape(value);
  out += "\"";
}

void end_complete(std::string& out) { out += "}}"; }

void end_doc(std::string& out) { out += "\n]}\n"; }

bool write_file(const std::string& path, const std::string& doc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  return ok;
}

}  // namespace chrome

std::string_view opcode_label(std::uint16_t code) {
  switch (code) {
    case msg::kMapContextName: return "map-context";
    case msg::kQueryName: return "query";
    case msg::kModifyName: return "modify";
    case msg::kRemoveName: return "remove";
    case msg::kRenameName: return "rename";
    case msg::kAddContextName: return "add-name";
    case msg::kDeleteContextName: return "delete-name";
    case msg::kCreateInstance: return "open";
    case msg::kCreateName: return "create";
    case msg::kMakeContext: return "make-context";
    case msg::kLinkContext: return "link-context";
    case msg::kGetContextName: return "get-context-name";
    case msg::kGetFileName: return "get-file-name";
    case msg::kQueryInstance: return "query-instance";
    case msg::kReadInstance: return "read-instance";
    case msg::kWriteInstance: return "write-instance";
    case msg::kReleaseInstance: return "release-instance";
    case msg::kGetTime: return "get-time";
    case msg::kLoadProgram: return "load-program";
    default: {
      // Unknown codes are cold (custom servers, tests): intern the label
      // once per code so the view stays valid for the process lifetime.
      // The sim is single-threaded, so a plain function-local map is safe;
      // std::map nodes never move, so views into values stay stable.
      static std::map<std::uint16_t, std::string> interned;
      auto [it, inserted] = interned.try_emplace(code);
      if (inserted) {
        char buf[16];
        std::snprintf(buf, sizeof buf, "op-0x%04x", code);
        it->second = buf;
      }
      return it->second;
    }
  }
}

std::uint32_t TraceSink::begin_span(std::uint64_t trace_id,
                                    std::uint32_t parent, std::string name,
                                    std::string category, std::uint32_t pid,
                                    sim::SimTime start) {
  Span span;
  span.trace_id = trace_id;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.start = start;
  span.name = std::move(name);
  span.category = std::move(category);
  span.pid = pid;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void TraceSink::end_span(std::uint32_t id, sim::SimTime end) {
  if (Span* span = find_mut(id)) span->end = end;
}

std::uint32_t TraceSink::mark(std::uint64_t trace_id, std::uint32_t parent,
                             std::string name, std::uint32_t pid,
                             sim::SimTime start, sim::SimTime end) {
  const std::uint32_t id =
      begin_span(trace_id, parent, std::move(name), "mark", pid, start);
  end_span(id, end);
  return id;
}

void TraceSink::annotate(std::uint32_t id, std::string key,
                         std::string value) {
  if (Span* span = find_mut(id)) {
    span->args.emplace_back(std::move(key), std::move(value));
  }
}

void TraceSink::set_process_label(std::uint32_t pid, std::string_view label) {
  if (label.empty()) return;
  auto [it, inserted] = process_labels_.try_emplace(pid);
  if (inserted) it->second = std::string(label);
}

void TraceSink::note_send(std::uint32_t sender_pid, std::uint32_t span_id) {
  open_sends_[sender_pid] = span_id;
}

void TraceSink::end_send_slow(std::uint32_t sender_pid,
                              std::uint16_t reply_code, sim::SimTime started,
                              sim::SimTime now) {
  auto it = open_sends_.find(sender_pid);
  if (it != open_sends_.end()) {
    const std::uint32_t id = it->second;
    open_sends_.erase(it);
    end_span(id, now);
    annotate(id, "reply_code", std::to_string(reply_code));
  } else if (active_ && reply_code != 0) {
    const std::uint32_t id =
        mark(begin_trace(), 0, "error-reply", sender_pid, started, now);
    annotate(id, "reply_code", std::to_string(reply_code));
    annotate(id, "unsampled", "1");
  }
}

void TraceSink::clear() {
  spans_.clear();
  open_sends_.clear();
  process_labels_.clear();
  next_trace_ = 1;
}

std::string TraceSink::render_text(std::uint64_t trace_id) const {
  // Collect the trace's spans and index children in creation order (which
  // is also simulated-time order: spans open as the request progresses).
  std::vector<const Span*> roots;
  std::map<std::uint32_t, std::vector<const Span*>> children;
  sim::SimTime t_min = 0;
  sim::SimTime t_max = 0;
  bool any = false;
  for (const Span& span : spans_) {
    if (span.trace_id != trace_id) continue;
    if (!any) {
      t_min = span.start;
      any = true;
    }
    t_min = std::min(t_min, span.start);
    t_max = std::max(t_max, std::max(span.start, span.end));
    if (span.parent == 0 || find(span.parent) == nullptr ||
        find(span.parent)->trace_id != trace_id) {
      roots.push_back(&span);
    } else {
      children[span.parent].push_back(&span);
    }
  }
  std::string out = "trace #" + std::to_string(trace_id);
  if (!any) return out + ": (no spans)\n";
  out += " (" + format_ms(t_max - t_min) + " ms)\n";

  struct Frame {
    const Span* span;
    int depth;
  };
  std::vector<Frame> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.push_back({*it, 0});
  }
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const Span& span = *frame.span;
    out.append(static_cast<std::size_t>(frame.depth) * 2, ' ');
    out += span.name;
    out += " [" + format_ms(span.start - t_min) + "–" +
           format_ms((span.end >= 0 ? span.end : t_max) - t_min) + " ms";
    if (span.end < 0) out += ", open";
    out += "]";
    for (const auto& [key, value] : span.args) {
      out += " " + key + "=" + value;
    }
    out += "\n";
    auto kids = children.find(span.id);
    if (kids != children.end()) {
      for (auto it = kids->second.rbegin(); it != kids->second.rend(); ++it) {
        stack.push_back({*it, frame.depth + 1});
      }
    }
  }
  return out;
}

std::string TraceSink::chrome_json() const {
  // Chrome trace-event format: "X" complete events with simulated-time
  // microsecond timestamps, plus "M" metadata naming the (single) process
  // and one "thread" per simulated pid.  Assembled through the shared
  // chrome:: emitters so the flight recorder's dumps are the same dialect.
  std::string out;
  chrome::begin_doc(out, "v-domain (simulated time)");
  // Sorted for a stable document (unordered_map iteration order varies).
  std::map<std::uint32_t, const std::string*> labels;
  for (const auto& [pid, label] : process_labels_) {
    labels.emplace(pid, &label);
  }
  for (const auto& [pid, label] : labels) {
    chrome::thread_meta(out, pid, *label);
  }
  sim::SimTime t_max = 0;
  for (const Span& span : spans_) {
    t_max = std::max(t_max, std::max(span.start, span.end));
  }
  for (const Span& span : spans_) {
    const sim::SimTime end = span.end >= 0 ? span.end : t_max;
    chrome::begin_complete(out, static_cast<double>(span.start) / 1000.0,
                           static_cast<double>(end - span.start) / 1000.0,
                           span.pid, span.name, span.category);
    chrome::arg(out, "trace", std::to_string(span.trace_id));
    chrome::arg(out, "span", std::to_string(span.id));
    chrome::arg(out, "parent", std::to_string(span.parent));
    for (const auto& [key, value] : span.args) {
      chrome::arg(out, key, value);
    }
    if (span.end < 0) chrome::arg(out, "open", "1");
    chrome::end_complete(out);
  }
  chrome::end_doc(out);
  return out;
}

bool TraceSink::write_chrome_json(const std::string& path) const {
  return chrome::write_file(path, chrome_json());
}

}  // namespace v::obs
