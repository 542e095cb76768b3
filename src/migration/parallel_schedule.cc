#include "migration/parallel_schedule.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <vector>

namespace pstore {

namespace {

/// Edge-colors a bipartite multigraph with max degree `colors` using the
/// classic alternating-path (Konig) construction. `edges` are
/// (left, right) pairs; the result assigns each edge a color in
/// [0, colors) such that no two edges at a vertex share a color.
std::vector<int32_t> EdgeColorBipartite(
    int32_t num_left, int32_t num_right, int32_t colors,
    const std::vector<std::pair<int32_t, int32_t>>& edges) {
  // at_left[u][c] / at_right[v][c] = index of the edge colored c at that
  // vertex, or -1.
  std::vector<std::vector<int32_t>> at_left(
      static_cast<size_t>(num_left),
      std::vector<int32_t>(static_cast<size_t>(colors), -1));
  std::vector<std::vector<int32_t>> at_right(
      static_cast<size_t>(num_right),
      std::vector<int32_t>(static_cast<size_t>(colors), -1));
  std::vector<int32_t> color(edges.size(), -1);

  std::vector<int32_t> path;  // reused by every alternating-path walk
  auto first_free = [&](const std::vector<int32_t>& slots) {
    for (int32_t c = 0; c < colors; ++c) {
      if (slots[static_cast<size_t>(c)] < 0) return c;
    }
    return static_cast<int32_t>(-1);
  };

  for (size_t e = 0; e < edges.size(); ++e) {
    const int32_t u = edges[e].first;
    const int32_t v = edges[e].second;
    // Look for a color free at both endpoints.
    int32_t common = -1;
    for (int32_t c = 0; c < colors; ++c) {
      if (at_left[static_cast<size_t>(u)][static_cast<size_t>(c)] < 0 &&
          at_right[static_cast<size_t>(v)][static_cast<size_t>(c)] < 0) {
        common = c;
        break;
      }
    }
    if (common >= 0) {
      color[e] = common;
      at_left[static_cast<size_t>(u)][static_cast<size_t>(common)] =
          static_cast<int32_t>(e);
      at_right[static_cast<size_t>(v)][static_cast<size_t>(common)] =
          static_cast<int32_t>(e);
      continue;
    }
    // cu free at u (used at v), cv free at v (used at u). The edges
    // colored cu or cv form vertex-disjoint paths/cycles (at most one of
    // each color per vertex); v is an endpoint of its path (no cv edge),
    // and the path cannot reach u (no cu edge there). Walk the path
    // first, then swap the two colors along it, freeing cu at v.
    const int32_t cu = first_free(at_left[static_cast<size_t>(u)]);
    const int32_t cv = first_free(at_right[static_cast<size_t>(v)]);
    assert(cu >= 0 && cv >= 0 && cu != cv);

    path.clear();
    int32_t cur_vertex = v;     // alternates right, left, right, ...
    bool cur_is_right = true;
    int32_t want = cu;          // color of the next edge on the path
    while (true) {
      const int32_t edge_idx =
          cur_is_right
              ? at_right[static_cast<size_t>(cur_vertex)]
                        [static_cast<size_t>(want)]
              : at_left[static_cast<size_t>(cur_vertex)]
                       [static_cast<size_t>(want)];
      if (edge_idx < 0) break;
      path.push_back(edge_idx);
      const int32_t eu = edges[static_cast<size_t>(edge_idx)].first;
      const int32_t ev = edges[static_cast<size_t>(edge_idx)].second;
      cur_vertex = cur_is_right ? eu : ev;
      cur_is_right = !cur_is_right;
      want = (want == cu) ? cv : cu;
    }
    // Clear the path's old color slots, then install the swapped ones
    // (two passes so a slot freed by one edge isn't clobbered by the
    // stale entry of its neighbour).
    for (int32_t edge_idx : path) {
      const int32_t old_color = color[static_cast<size_t>(edge_idx)];
      const int32_t eu = edges[static_cast<size_t>(edge_idx)].first;
      const int32_t ev = edges[static_cast<size_t>(edge_idx)].second;
      at_left[static_cast<size_t>(eu)][static_cast<size_t>(old_color)] = -1;
      at_right[static_cast<size_t>(ev)][static_cast<size_t>(old_color)] = -1;
    }
    for (int32_t edge_idx : path) {
      const int32_t new_color =
          color[static_cast<size_t>(edge_idx)] == cu ? cv : cu;
      const int32_t eu = edges[static_cast<size_t>(edge_idx)].first;
      const int32_t ev = edges[static_cast<size_t>(edge_idx)].second;
      color[static_cast<size_t>(edge_idx)] = new_color;
      at_left[static_cast<size_t>(eu)][static_cast<size_t>(new_color)] =
          edge_idx;
      at_right[static_cast<size_t>(ev)][static_cast<size_t>(new_color)] =
          edge_idx;
    }
    color[e] = cu;
    at_left[static_cast<size_t>(u)][static_cast<size_t>(cu)] =
        static_cast<int32_t>(e);
    at_right[static_cast<size_t>(v)][static_cast<size_t>(cu)] =
        static_cast<int32_t>(e);
  }
  return color;
}

}  // namespace

int32_t MoveSchedule::FirstAppearance(int32_t delta_index) const {
  for (size_t r = 0; r < rounds.size(); ++r) {
    for (const auto& t : rounds[r].transfers) {
      if (t.delta_index == delta_index) return static_cast<int32_t>(r);
    }
  }
  return -1;
}

int32_t MoveSchedule::LastAppearance(int32_t delta_index) const {
  for (size_t r = rounds.size(); r-- > 0;) {
    for (const auto& t : rounds[r].transfers) {
      if (t.delta_index == delta_index) return static_cast<int32_t>(r);
    }
  }
  return -1;
}

int32_t MoveSchedule::MachinesDuringRound(int32_t r) const {
  const int32_t s = small_side();
  int32_t active_delta = 0;
  for (int32_t d = 0; d < delta(); ++d) {
    if (scale_out()) {
      // Allocated from its first transfer to the end of the move.
      if (FirstAppearance(d) <= r) ++active_delta;
    } else {
      // Released right after its last transfer (early de-allocation).
      if (LastAppearance(d) >= r) ++active_delta;
    }
  }
  return s + active_delta;
}

double MoveSchedule::AverageMachines() const {
  if (rounds.empty()) return from_nodes;
  double total = 0;
  for (size_t r = 0; r < rounds.size(); ++r) {
    total += MachinesDuringRound(static_cast<int32_t>(r));
  }
  return total / static_cast<double>(rounds.size());
}

std::string MoveSchedule::ToString() const {
  std::ostringstream os;
  os << "MoveSchedule " << from_nodes << " -> " << to_nodes << " ("
     << rounds.size() << " rounds)\n";
  for (size_t r = 0; r < rounds.size(); ++r) {
    os << "  round " << r << " [" << MachinesDuringRound(static_cast<int32_t>(r))
       << " machines]:";
    for (const auto& t : rounds[r].transfers) {
      // Render engine-style node numbers: small side keeps low ids.
      const int32_t s = small_side();
      const int32_t sender =
          scale_out() ? t.small_index + 1 : s + t.delta_index + 1;
      const int32_t receiver =
          scale_out() ? s + t.delta_index + 1 : t.small_index + 1;
      os << " " << sender << "->" << receiver;
    }
    os << "\n";
  }
  return os.str();
}

Result<MoveSchedule> BuildMoveSchedule(int32_t b, int32_t a) {
  if (b < 1 || a < 1) {
    return Status::InvalidArgument("cluster sizes must be >= 1");
  }
  MoveSchedule schedule;
  schedule.from_nodes = b;
  schedule.to_nodes = a;
  if (b == a) return schedule;

  const int32_t s = std::min(b, a);
  const int32_t delta = std::max(b, a) - s;
  const int32_t f = delta / s;
  const int32_t r = delta % s;

  // Every round's size is known up front, so each vector is allocated
  // once.
  std::vector<ScheduleRound> rounds;
  rounds.reserve(static_cast<size_t>(std::max(s, delta)));

  if (delta <= s) {
    // Case 1: all delta nodes participate from the start; s rounds of
    // rotating partial matchings.
    for (int32_t t = 0; t < s; ++t) {
      ScheduleRound round;
      round.transfers.reserve(static_cast<size_t>(delta));
      for (int32_t d = 0; d < delta; ++d) {
        round.transfers.push_back(UnitTransfer{(d + t) % s, d});
      }
      rounds.push_back(std::move(round));
    }
  } else {
    // Full blocks (all of them in case 2; the first F-1 in case 3).
    const int32_t full_blocks = (r == 0) ? f : f - 1;
    for (int32_t g = 0; g < full_blocks; ++g) {
      for (int32_t t = 0; t < s; ++t) {
        ScheduleRound round;
        round.transfers.reserve(static_cast<size_t>(s));
        for (int32_t j = 0; j < s; ++j) {
          round.transfers.push_back(UnitTransfer{(j + t) % s, g * s + j});
        }
        rounds.push_back(std::move(round));
      }
    }
    if (r != 0) {
      // Case 3, phase 2: block f-1 partially filled with r latin-square
      // rounds; each of its nodes exchanges with r distinct partners.
      const int32_t block_base = (f - 1) * s;
      for (int32_t t = 0; t < r; ++t) {
        ScheduleRound round;
        round.transfers.reserve(static_cast<size_t>(s));
        for (int32_t j = 0; j < s; ++j) {
          round.transfers.push_back(UnitTransfer{(j + t) % s, block_base + j});
        }
        rounds.push_back(std::move(round));
      }
      // Case 3, phase 3: the final r delta nodes plus the completion of
      // block f-1, interleaved so all s small-side nodes stay busy in
      // each of the s remaining rounds. The demands form an s-regular
      // bipartite multigraph; edge-color it into s perfect matchings.
      std::vector<std::pair<int32_t, int32_t>> edges;
      edges.reserve(static_cast<size_t>(s) * static_cast<size_t>(s));
      // Right-vertex encoding: block f-1 local j -> j; new node u -> s+u.
      for (int32_t j = 0; j < s; ++j) {
        for (int32_t t = r; t < s; ++t) {
          edges.emplace_back((j + t) % s, j);
        }
      }
      for (int32_t u = 0; u < r; ++u) {
        for (int32_t i = 0; i < s; ++i) {
          edges.emplace_back(i, s + u);
        }
      }
      const std::vector<int32_t> colors =
          EdgeColorBipartite(s, s + r, s, edges);
      std::vector<ScheduleRound> phase3(static_cast<size_t>(s));
      for (ScheduleRound& round : phase3) {
        round.transfers.reserve(static_cast<size_t>(s));
      }
      for (size_t e = 0; e < edges.size(); ++e) {
        const int32_t right = edges[e].second;
        const int32_t delta_index =
            right < s ? block_base + right : f * s + (right - s);
        phase3[static_cast<size_t>(colors[e])].transfers.push_back(
            UnitTransfer{edges[e].first, delta_index});
      }
      for (auto& round : phase3) rounds.push_back(std::move(round));
    }
  }

  // Scale-in runs the scale-out schedule in reverse so machines release
  // as early as possible — the mirror of just-in-time allocation, which
  // is what makes Algorithm 4 symmetric.
  if (b > a) std::reverse(rounds.begin(), rounds.end());

  schedule.rounds = std::move(rounds);
  return schedule;
}

}  // namespace pstore
