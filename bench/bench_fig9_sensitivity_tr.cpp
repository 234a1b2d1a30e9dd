// Fig. 9: sensitivity to the linearity-diagnosis threshold T_R.
//
// Paper shape to reproduce: looser T_R -> larger sparsification ratio and
// larger communication speedup; accuracy is largely insensitive thanks to
// the error-feedback mechanism, with only the loosest setting showing a
// slight degradation.
#include <cstdio>

#include "common.h"
#include "util/csv.h"

using namespace fedsu;

int main(int argc, char** argv) try {
  bench::BenchConfig defaults;
  defaults.rounds = 50;
  util::Flags flags = bench::make_flags(defaults);
  flags.add_string("tr-values", "0.2,0.05,0.01,0.001",
                   "comma list of T_R values to sweep");
  if (!fedsu::util::parse_flags(flags, argc, argv)) return 0;
  bench::BenchConfig base = bench::config_from_flags(flags);
  base.eval_every = std::max(1, base.eval_every);

  const std::vector<double> values =
      bench::parse_list<double>(flags, "tr-values");

  bench::print_header("Fig. 9: FedSU sensitivity to T_R (" + base.dataset + ")");
  std::unique_ptr<util::CsvWriter> csv;
  if (!base.csv_dir.empty()) {
    csv = std::make_unique<util::CsvWriter>(base.csv_dir + "/fig9.csv");
    csv->write_row({"t_r", "best_accuracy", "mean_spars_ratio",
                    "final_spars_ratio", "total_time_s", "gigabytes"});
  }
  std::printf("%-10s %10s %12s %12s %12s %10s\n", "T_R", "best acc",
              "mean ratio", "final ratio", "total t (s)", "GB moved");
  for (double tr : values) {
    bench::BenchConfig config = base;
    config.t_r = tr;
    const bench::SchemeRun run = bench::run_scheme(config, "fedsu");
    const double final_ratio =
        run.records.empty() ? 0.0 : run.records.back().sparsification_ratio;
    std::printf("%-10.4f %10.3f %12.3f %12.3f %12.1f %10.4f\n", tr,
                run.summary.best_accuracy,
                run.summary.mean_sparsification_ratio, final_ratio,
                run.summary.total_time_s, run.summary.total_gigabytes);
    if (csv) {
      csv->write_row({util::CsvWriter::field(tr),
                      util::CsvWriter::field(run.summary.best_accuracy),
                      util::CsvWriter::field(run.summary.mean_sparsification_ratio),
                      util::CsvWriter::field(final_ratio),
                      util::CsvWriter::field(run.summary.total_time_s),
                      util::CsvWriter::field(run.summary.total_gigabytes)});
    }
  }
  return 0;
} catch (const fedsu::util::UsageError& e) {
  return fedsu::util::usage_exit(argv[0], e);
}
