// Theorem 1 (paper §IV-D) evaluated numerically — the analytical mirror of
// Fig. 10: the speculation term of the convergence bound grows with T_S^2,
// while an Eq.-13 schedule drives the whole bound to 0 as T grows.
#include <cstdio>

#include "common.h"
#include "core/theory.h"
#include "nn/schedule.h"
#include "util/flags.h"

using namespace fedsu;

int main(int argc, char** argv) try {
  util::Flags flags;
  flags.add_double("beta", 1.0, "smoothness constant (Assumption 1)")
      .add_double("sigma2", 1.0, "gradient bound sigma^2 (Assumption 2)")
      .add_double("gap", 1.0, "initial optimality gap F(x0) - F*")
      .add_double("lr", 0.1, "base learning rate");
  if (!fedsu::bench::parse_flags(flags, argc, argv)) return 0;

  core::TheoryParams params;
  params.beta = flags.get_double("beta");
  params.sigma2 = flags.get_double("sigma2");
  params.initial_gap = flags.get_double("gap");
  const float lr = static_cast<float>(flags.get_double("lr"));

  std::printf("\n=== Theorem 1 bound vs T_S (inverse-sqrt schedule, T=1000) "
              "===\n");
  std::printf("%-8s %14s %16s %14s %12s\n", "T_S", "optimality", "speculation",
              "variance", "total");
  nn::InverseSqrtLr schedule(lr);
  for (double t_s : {0.1, 1.0, 10.0, 100.0}) {
    params.t_s = t_s;
    const auto bound = core::theorem1_bound(params, schedule, 1000);
    std::printf("%-8.1f %14.5f %16.5f %14.5f %12.5f\n", t_s,
                bound.optimality_term, bound.speculation_term,
                bound.variance_term, bound.total());
  }

  std::printf("\n=== Bound vs horizon T (T_S = 1, Eq. 13 schedules vanish; "
              "constant lr plateaus) ===\n");
  params.t_s = 1.0;
  std::printf("%-10s %18s %18s\n", "T", "inverse-sqrt total",
              "constant-lr total");
  nn::ConstantLr constant(lr);
  for (int horizon : {100, 1000, 10000, 100000}) {
    const auto decaying = core::theorem1_bound(params, schedule, horizon);
    const auto flat = core::theorem1_bound(params, constant, horizon);
    std::printf("%-10d %18.5f %18.5f\n", horizon, decaying.total(),
                flat.total());
  }
  std::printf("\n(The speculation term scales with T_S^2 — the analytical "
              "reason Fig. 10's accuracy collapses at T_S = 100 — and the "
              "inverse-sqrt schedule drives every term to 0, Theorem 1's "
              "convergence condition Eq. 13.)\n");
  return 0;
} catch (const fedsu::bench::UsageError& e) {
  return fedsu::bench::usage_exit(argv[0], e);
}
