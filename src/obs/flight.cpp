#include "obs/flight.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/trace.hpp"

namespace v::obs {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

const char* trigger_label(std::uint16_t code) {
  switch (code) {
    case kDumpChaosOracle: return "chaos-oracle";
    case kDumpRetryExhausted: return "retry-exhausted";
    case kDumpWatchdog: return "watchdog";
    case kDumpOnDemand: return "on-demand";
    default: return "trigger";
  }
}

}  // namespace

std::string_view flight_kind_label(FlightKind kind) noexcept {
  switch (kind) {
    case FlightKind::kSend: return "send";
    case FlightKind::kReply: return "reply";
    case FlightKind::kForward: return "forward";
    case FlightKind::kTimer: return "timer";
    case FlightKind::kGateAcquire: return "gate-acquire";
    case FlightKind::kGateRelease: return "gate-release";
    case FlightKind::kRetransmit: return "retransmit";
    case FlightKind::kFaultDrop: return "fault-drop";
    case FlightKind::kFaultDup: return "fault-dup";
    case FlightKind::kHostDown: return "host-down";
    case FlightKind::kHostUp: return "host-up";
    case FlightKind::kBudgetExhausted: return "budget-exhausted";
    case FlightKind::kWatchdog: return "watchdog";
    case FlightKind::kDump: return "dump";
  }
  return "event";
}

void FlightRecorder::reset_rings(std::size_t count) {
  std::size_t shift = 0;
  while ((std::size_t{1} << shift) < mask_ + 1) ++shift;
  shift_ = shift;
  heads_.assign(count, 0);
  buf_.assign(count << shift_, FlightEvent{});
  if (labels_.size() < count) labels_.resize(count);
  if (labels_[0].empty()) labels_[0] = "domain";
}

void FlightRecorder::set_capacity(std::size_t events_per_ring) {
  mask_ = round_up_pow2(std::max<std::size_t>(events_per_ring, 8)) - 1;
  reset_rings(heads_.size());
}

void FlightRecorder::attach_host(std::uint16_t host, std::string_view label) {
  if (host >= heads_.size()) {
    heads_.resize(host + 1, 0);
    labels_.resize(host + 1);
    buf_.resize(heads_.size() << shift_, FlightEvent{});
  }
  labels_[host] = std::string(label);
}

std::uint64_t FlightRecorder::records() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t head : heads_) total += head;
  return total;
}

std::uint64_t FlightRecorder::overwritten() const noexcept {
  std::uint64_t lost = 0;
  for (const std::uint64_t head : heads_) {
    if (head > mask_ + 1) lost += head - (mask_ + 1);
  }
  return lost;
}

bool FlightRecorder::trigger(std::uint16_t trigger_code, sim::SimTime at) {
  ++triggers_;
  record(0, FlightKind::kDump, at, 0, 0, trigger_code, triggers_);
  if (dump_path_.empty()) return false;
  return write_chrome_json(dump_path_);
}

std::string FlightRecorder::chrome_json() const {
  // Merge every ring's surviving records in (at, seq) order.  seq is the
  // global append counter, so ties at one simulated instant keep their
  // true causal order and the document is deterministic for a fixed seed.
  std::vector<std::pair<const FlightEvent*, std::uint16_t>> merged;
  for (std::size_t h = 0; h < heads_.size(); ++h) {
    const FlightEvent* ring = buf_.data() + (h << shift_);
    const std::uint64_t head = heads_[h];
    const std::uint64_t count = std::min<std::uint64_t>(head, mask_ + 1);
    for (std::uint64_t i = head - count; i < head; ++i) {
      merged.emplace_back(&ring[i & mask_], static_cast<std::uint16_t>(h));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) {
              if (a.first->at != b.first->at) return a.first->at < b.first->at;
              return a.first->seq < b.first->seq;
            });

  std::string out;
  chrome::begin_doc(out, "v-flight (last events per host, simulated time)");
  for (std::size_t h = 0; h < heads_.size(); ++h) {
    chrome::thread_meta(out, static_cast<std::uint32_t>(h),
                        labels_[h].empty() ? "host" : labels_[h]);
  }
  char buf[32];
  for (const auto& [ev, host] : merged) {
    const FlightKind kind = static_cast<FlightKind>(ev->kind);
    std::string name(flight_kind_label(kind));
    if (kind == FlightKind::kDump) {
      name += " ";
      name += trigger_label(ev->code);
    } else if (ev->code != 0 && kind != FlightKind::kHostDown &&
               kind != FlightKind::kHostUp) {
      name += " ";
      name += opcode_label(ev->code);
    }
    std::string cat = "flight-";
    cat += flight_kind_label(kind);
    chrome::begin_complete(out, static_cast<double>(ev->at) / 1000.0, 0.0,
                           static_cast<std::uint32_t>(host), name, cat);
    std::snprintf(buf, sizeof buf, "%u", ev->seq);
    chrome::arg(out, "seq", buf);
    if (ev->actor != 0) {
      std::snprintf(buf, sizeof buf, "%u", ev->actor);
      chrome::arg(out, "actor", buf);
    }
    if (ev->peer != 0) {
      std::snprintf(buf, sizeof buf, "%u", ev->peer);
      chrome::arg(out, "peer", buf);
    }
    if (ev->code != 0) {
      std::snprintf(buf, sizeof buf, "%u", ev->code);
      chrome::arg(out, "code", buf);
    }
    if (ev->arg != 0) {
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(ev->arg));
      chrome::arg(out, "arg", buf);
    }
    if ((ev->flags & 0x1) != 0) chrome::arg(out, "sampled", "1");
    chrome::end_complete(out);
  }
  chrome::end_doc(out);
  return out;
}

bool FlightRecorder::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = chrome_json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  return ok;
}

void FlightRecorder::clear() {
  std::fill(heads_.begin(), heads_.end(), 0);
  std::fill(buf_.begin(), buf_.end(), FlightEvent{});
  next_seq_ = 0;
  triggers_ = 0;
}

}  // namespace v::obs
