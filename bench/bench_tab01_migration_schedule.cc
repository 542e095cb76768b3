/// Table 1: "Schedule of parallel migrations when scaling from 3
/// machines to 14 machines." Prints our generated three-phase schedule
/// (11 rounds; a naive block-only schedule needs 12) with the same
/// sender -> receiver notation as the paper. The round counts are
/// checked as rows; main returns 1 when one fails.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "migration/parallel_schedule.h"

using namespace pstore;

int main(int argc, char** argv) {
  bench::PrintBanner(
      "Table 1", "Parallel migration schedule, 3 -> 14 machines",
      "three phases keep all senders busy; 11 rounds vs 12 naive");

  const int32_t b = static_cast<int32_t>(bench::IntFlag(argc, argv, "b", 3));
  const int32_t a = static_cast<int32_t>(bench::IntFlag(argc, argv, "a", 14));
  auto schedule = BuildMoveSchedule(b, a);
  if (!schedule.ok()) {
    std::fprintf(stderr, "%s\n", schedule.status().ToString().c_str());
    return 1;
  }
  std::cout << schedule->ToString();

  const int32_t s = schedule->small_side();
  const int32_t delta = schedule->delta();
  // A naive schedule fills whole blocks of s receivers, then the final
  // partial block with only r receivers (underusing senders):
  // ceil(delta/s - 1) * s full-block rounds + s rounds for the last
  // full block + s rounds for the r stragglers.
  const int32_t r = delta % s;
  const int32_t naive_rounds =
      delta <= s ? s : (delta / s) * s + (r == 0 ? 0 : s);
  std::printf(
      "\nRounds: %zu (three-phase) vs %d (naive blocks) — the paper's "
      "example saves one full round.\n",
      schedule->rounds.size(), naive_rounds);
  std::printf("Average machines allocated during move: %.3f\n",
              schedule->AverageMachines());
  using scenario::Op;
  const bool ok = bench::CheckPaperRows(
      {{"Tab. 1 three-phase rounds == 11",
        static_cast<double>(schedule->rounds.size()), Op::kEq, 11},
       {"Tab. 1 naive rounds == 12", static_cast<double>(naive_rounds),
        Op::kEq, 12}});
  return ok ? 0 : 1;
}
