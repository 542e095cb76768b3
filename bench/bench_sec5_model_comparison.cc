/// Section 5 (discussion): "under tau = 60 minutes, the MRE for
/// predicting the B2W load is 10.4%, 12.2%, and 12.5% under SPAR, ARMA,
/// and AR, respectively." This bench fits all three models on the same
/// 4-week training window and compares their MRE at tau = 60. The
/// paper's ordering is checked as rows; main returns 1 when one fails.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/table_writer.h"
#include "prediction/ar.h"
#include "prediction/spar.h"
#include "workload/b2w_trace.h"

using namespace pstore;
using scenario::Op;

int main(int argc, char** argv) {
  bench::PrintBanner("Section 5",
                     "Model comparison at tau = 60 min on B2W load",
                     "paper: SPAR 10.4%, ARMA 12.2%, AR 12.5%");

  const int32_t train_days =
      static_cast<int32_t>(bench::IntFlag(argc, argv, "train_days", 28));
  const int32_t eval_days =
      static_cast<int32_t>(bench::IntFlag(argc, argv, "eval_days", 4));
  auto trace =
      GenerateB2wTrace(B2wRegularTraffic(train_days + eval_days + 1, 555));
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
    return 1;
  }
  std::vector<double> train(trace->begin(),
                            trace->begin() + train_days * 1440);

  std::vector<std::unique_ptr<LoadPredictor>> models;
  models.push_back(std::make_unique<SparPredictor>());
  models.push_back(std::make_unique<ArmaPredictor>(30, 10));
  models.push_back(std::make_unique<ArPredictor>(30));

  TableWriter table({"model", "MRE % (tau=60)", "paper reports"});
  const char* paper[] = {"10.4%", "12.2%", "12.5%"};
  const int64_t eval_begin = static_cast<int64_t>(train_days) * 1440;
  const int64_t eval_end =
      static_cast<int64_t>(train_days + eval_days) * 1440;

  std::vector<double> mres;
  int idx = 0;
  for (auto& model : models) {
    // AR/ARMA only need the tau=60 coefficient set, but Fit trains all
    // horizons up to 60; restrict them to tau=60 by fitting horizon 60.
    Status fitted = model->Fit(train, 60);
    if (!fitted.ok()) {
      std::fprintf(stderr, "%s fit failed: %s\n", model->name().c_str(),
                   fitted.ToString().c_str());
      return 1;
    }
    double total = 0;
    int64_t n = 0;
    for (int64_t t = eval_begin; t + 60 < eval_end; t += 11) {
      auto p = model->ForecastAt(*trace, t, 60);
      if (!p.ok()) continue;
      const double a = (*trace)[static_cast<size_t>(t + 60)];
      if (a <= 0) continue;
      total += std::fabs(*p - a) / a;
      ++n;
    }
    const double mre = 100.0 * total / static_cast<double>(n);
    mres.push_back(mre);
    table.AddRow({model->name(), TableWriter::Fmt(mre, 2), paper[idx++]});
  }
  table.Print(std::cout);
  std::cout << "Expected shape: SPAR <= ARMA <= AR (SPAR's periodic terms "
               "capture the diurnal pattern the pure AR models miss).\n";
  const std::vector<bench::PaperRow> rows = {
      {"Sec. 5 MRE at tau=60: SPAR < ARMA", mres[1], Op::kGt, mres[0]},
      {"Sec. 5 MRE at tau=60: ARMA < AR", mres[2], Op::kGt, mres[1]},
  };
  return bench::CheckPaperRows(rows) ? 0 : 1;
}
