// Per-layer analysis of a traced vbench repeat.
//
// The kernel opens a root "send" span for every sampled transaction, each
// CSNH server a "hop" span split into "queue" (mailbox arrival -> dispatch)
// and "service" (dispatch -> reply or forward), and a forward hangs the next
// hop under the current one.  Only trees rooted at a client process are
// read: fabric handoff agents send too, but they are not the workload.
#include <algorithm>
#include <cstdio>
#include <map>

#include "vbench.hpp"

namespace vbench {

namespace {

using v::obs::Span;
using v::sim::SimTime;

constexpr std::size_t kNoClass = kClasses;

/// "hop shard2" -> the shard class, "hop fs3" -> the file-server class:
/// hop spans carry the serving process's name.
std::size_t class_of_hop(std::string_view name) {
  constexpr std::string_view kHop = "hop ";
  if (!name.starts_with(kHop)) return kNoClass;
  const std::string_view server = name.substr(kHop.size());
  for (std::size_t c = 0; c < kClasses; ++c) {
    if (server.starts_with(kClassNames[c])) return c;
  }
  return kNoClass;
}

/// An interval charged to an owner span, for per-owner union lengths.
struct Piece {
  std::uint32_t owner;
  SimTime start;
  SimTime end;
};

/// Clip [start, end) to the owner's interval and keep it if non-empty.
void add_piece(std::vector<Piece>& pieces, const Span& owner, SimTime start,
               SimTime end) {
  start = std::max(start, owner.start);
  end = std::min(end, owner.end);
  if (end > start) pieces.push_back({owner.id, start, end});
}

/// Length of the union of each owner's pieces, indexed by owner span id.
std::vector<SimTime> covered_by_owner(std::vector<Piece>& pieces,
                                      std::size_t span_count) {
  std::sort(pieces.begin(), pieces.end(), [](const Piece& a, const Piece& b) {
    return a.owner != b.owner ? a.owner < b.owner : a.start < b.start;
  });
  std::vector<SimTime> covered(span_count + 1, 0);
  std::size_t i = 0;
  while (i < pieces.size()) {
    const std::uint32_t owner = pieces[i].owner;
    SimTime lo = pieces[i].start;
    SimTime hi = pieces[i].end;
    for (++i; i < pieces.size() && pieces[i].owner == owner; ++i) {
      if (pieces[i].start > hi) {
        covered[owner] += hi - lo;
        lo = pieces[i].start;
      }
      hi = std::max(hi, pieces[i].end);
    }
    covered[owner] += hi - lo;
  }
  return covered;
}

double ms(SimTime t) { return v::sim::to_ms(t); }

}  // namespace

TraceLayers analyze_trace(const v::obs::TraceSink& sink,
                          const TraceScope& scope) {
  TraceLayers out;
  const std::vector<Span>& spans = sink.spans();
  const std::size_t n = spans.size();
  out.spans = n;

  // Span ids are allocation order and a parent always begins before its
  // children, so one forward pass resolves every span's root.  Roots the
  // kernel promoted at a retransmit are skipped: they are the slow
  // transactions the head decision passed over, so keeping them would bias
  // every per-op estimate, and the hops before the promotion are missing.
  std::vector<std::uint32_t> root(n + 1, 0);
  std::vector<char> client_root(n + 1, 0);
  for (const Span& s : spans) {
    root[s.id] = s.parent == 0 ? s.id : root[s.parent];
    if (s.parent == 0 && s.category == "send" && s.end >= 0 &&
        !s.name.ends_with("(promoted)") &&
        std::binary_search(scope.client_pids.begin(), scope.client_pids.end(),
                           s.pid)) {
      client_root[s.id] = 1;
    }
  }
  auto in_client_tree = [&](const Span& s) {
    return s.end >= 0 && client_root[root[s.id]] != 0;
  };

  // Layer rows: client send, then hop / queue / service per server class.
  enum Kind { kHop, kQueue, kService, kKinds };
  constexpr std::string_view kKindNames[kKinds] = {"hop", "queue", "service"};
  LayerRow send_row{.layer = "client send"};
  LayerRow rows[kClasses][kKinds];
  for (std::size_t c = 0; c < kClasses; ++c) {
    for (std::size_t k = 0; k < kKinds; ++k) {
      rows[c][k].layer =
          std::string(kClassNames[c]) + " " + std::string(kKindNames[k]);
    }
  }

  std::vector<Piece> root_pieces;  // every hop of a tree, against its root
  std::vector<Piece> hop_pieces;   // a hop's children, against the hop
  std::vector<std::uint32_t> hops_in_tree(n + 1, 0);
  std::map<std::string, SimTime> busy;  // server -> service in window
  double open_roots = 0;
  double open_hops = 0;
  SimTime send_total = 0;

  for (const Span& s : spans) {
    if (!in_client_tree(s)) continue;
    const SimTime dur = s.end - s.start;
    if (s.parent == 0) {
      ++out.client_txns;
      ++send_row.spans;
      send_total += dur;
      continue;
    }
    const Span& parent = spans[s.parent - 1];
    if (s.category == "hop") {
      const std::size_t cls = class_of_hop(s.name);
      if (cls != kNoClass) {
        ++rows[cls][kHop].spans;
        rows[cls][kHop].total_ms_per_op += ms(dur);
      }
      add_piece(root_pieces, spans[root[s.id] - 1], s.start, s.end);
      ++hops_in_tree[root[s.id]];
    }
    if (parent.category == "hop") {
      add_piece(hop_pieces, parent, s.start, s.end);
      const std::size_t cls = class_of_hop(parent.name);
      if (cls == kNoClass) continue;
      if (s.category == "queue" || s.category == "service") {
        LayerRow& row = rows[cls][s.category == "queue" ? kQueue : kService];
        ++row.spans;
        row.total_ms_per_op += ms(dur);
        row.self_ms_per_op += ms(dur);
      }
      if (cls == kShardClass && s.category == "service" &&
          s.start >= scope.window_lo && s.start < scope.window_hi) {
        busy[parent.name] += dur;
      }
    }
  }

  const std::vector<SimTime> root_covered = covered_by_owner(root_pieces, n);
  const std::vector<SimTime> hop_covered = covered_by_owner(hop_pieces, n);
  SimTime transit = 0;
  for (const Span& s : spans) {
    if (!in_client_tree(s)) continue;
    if (s.parent == 0) {
      transit += (s.end - s.start) - root_covered[s.id];
      if (s.name == "send open") {
        ++open_roots;
        open_hops += hops_in_tree[s.id];
      }
    } else if (s.category == "hop") {
      const std::size_t cls = class_of_hop(s.name);
      if (cls != kNoClass) {
        rows[cls][kHop].self_ms_per_op +=
            ms((s.end - s.start) - hop_covered[s.id]);
      }
    }
  }

  out.transit_ms_per_txn =
      out.client_txns == 0 ? 0 : ms(transit) / static_cast<double>(out.client_txns);
  out.hops_per_open = open_roots == 0 ? 0 : open_hops / open_roots;

  // Sampled sums -> whole-run estimates -> per successful op.
  const double per_op =
      scope.ops == 0 ? 0 : 1.0 / (scope.rate * static_cast<double>(scope.ops));
  send_row.total_ms_per_op = ms(send_total) * per_op;
  send_row.self_ms_per_op = ms(transit) * per_op;
  out.rows.push_back(send_row);
  for (std::size_t c = 0; c < kClasses; ++c) {
    for (LayerRow& row : rows[c]) {
      row.total_ms_per_op *= per_op;
      row.self_ms_per_op *= per_op;
      out.rows.push_back(row);
    }
    out.queue_ms_per_op[c] = rows[c][kQueue].total_ms_per_op;
    out.service_ms_per_op[c] = rows[c][kService].total_ms_per_op;
  }

  const double window_ms = ms(scope.window_hi - scope.window_lo);
  for (const auto& [hop_name, service] : busy) {
    const double share =
        ms(service) / scope.rate /
        (window_ms * static_cast<double>(scope.shard_workers));
    if (share > out.shard_busy_share_max) {
      out.shard_busy_share_max = share;
      out.busiest_shard = hop_name.substr(4);
    }
  }
  return out;
}

void print_layers(const TraceLayers& layers) {
  std::printf("\n  per-layer table (traced repeat, simulated ms per op)\n");
  std::printf("  %-16s %10s %12s %12s\n", "layer", "spans", "total", "self");
  for (const LayerRow& row : layers.rows) {
    if (row.spans == 0) continue;  // a server class this workload lacks
    std::printf("  %-16s %10llu %12.4f %12.4f\n", row.layer.c_str(),
                static_cast<unsigned long long>(row.spans),
                row.total_ms_per_op, row.self_ms_per_op);
  }
  std::printf("  transit %.4f ms per client txn, %.3f hops per open",
              layers.transit_ms_per_txn, layers.hops_per_open);
  if (!layers.busiest_shard.empty()) {
    std::printf(", busiest shard %s at %.3f of its workers",
                layers.busiest_shard.c_str(), layers.shard_busy_share_max);
  }
  std::printf("\n");
}

}  // namespace vbench
