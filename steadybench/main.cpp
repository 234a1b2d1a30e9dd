// Steady-state benchmark harness for the fedsu library (README.md).
//
//   steadybench --workload <name>|all [--seed N] [--seconds S] [--trace 0|1]
//               [--protocol fedsu|fedavg]
//   steadybench --quick
//
// `all` runs the workloads one after another in one process and prefixes
// each metric with its workload's name.
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where an operation is one round (one aggregation cycle in async mode).
// Any failed check marks its round failed and makes the exit code 1; bad
// command lines exit 2 with a one-line diagnostic.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "checks.h"
#include "io/checkpoint.h"
#include "layers.h"
#include "obs/memory.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace steadybench {
namespace {

using Clock = std::chrono::steady_clock;
using fedsu::fl::RoundRecord;
using fedsu::fl::Simulation;

constexpr int kSetupRepeats = 3;
constexpr int kThreads = 4;  // worker threads; workloads are sized for 4 cores
constexpr double kMiB = 1024.0 * 1024.0;

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  int seconds = 5;
  int trace = 0;
  std::string protocol = "fedsu";
  bool quick = false;
};

long long parse_integer(const std::string& flag, const std::string& text,
                        long long lo, long long hi) {
  std::size_t used = 0;
  long long value = 0;
  try {
    if (text.empty() || text[0] == '-' || text[0] == '+') throw 0;
    value = std::stoll(text, &used);
  } catch (...) {
    used = 0;
  }
  if (used == 0 || used != text.size() || value < lo || value > hi) {
    throw UsageError(flag + " expects an integer in [" + std::to_string(lo) +
                     ", " + std::to_string(hi) + "], got '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      args.quick = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--protocol") {
      throw UsageError("unknown argument '" + flag + "'");
    }
    if (i + 1 >= argc) throw UsageError(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const auto& names = workload_names();
      if (value != "all" &&
          std::find(names.begin(), names.end(), value) == names.end()) {
        throw UsageError("unknown workload '" + value + "'");
      }
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(
          parse_integer(flag, value, 0, (1LL << 62)));
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(parse_integer(flag, value, 1, 3600));
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(parse_integer(flag, value, 0, 1));
    } else {
      if (value != "fedsu" && value != "fedavg") {
        throw UsageError("unknown protocol '" + value + "'");
      }
      args.protocol = value;
    }
  }
  if (!have_workload && !args.quick) throw UsageError("--workload is required");
  return args;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

// Operations attempted and failed, with the first few diagnostics.
struct Tally {
  long long attempted = 0;
  long long failed = 0;

  void operation(const std::string& error) {
    ++attempted;
    fail(error);
  }
  // Charges a run-level failure to the operation that revealed it.
  void fail(const std::string& error) {
    if (error.empty()) return;
    if (failed < 5) std::fprintf(stderr, "steadybench: check failed: %s\n",
                                 error.c_str());
    ++failed;
  }
};

// Per-round host measurements of the measured window.
struct RoundTiming {
  double wall_s = 0.0;  // step(), less the wrapper's own checking
  double sync_s = 0.0;  // the protocol's synchronize()
  std::int64_t begin_ns = 0, end_ns = 0;  // tracer clock
};

// One workload run: set-up (construction plus warm-up rounds), then the
// measured rounds up to the workload's last round.
struct Pass {
  double setup_s = 0.0;
  double run_wall_s = 0.0;
  std::vector<RoundRecord> records;  // every round, warm-up included
  std::vector<RoundTiming> timing;   // one per measured round
  std::unique_ptr<Simulation> sim;
  std::uint64_t checksum = 0;  // of the final global state

  CheckedProtocol& protocol() const {
    return static_cast<CheckedProtocol&>(sim->protocol());
  }
};

std::unique_ptr<Simulation> make_simulation(const Workload& w) {
  return std::make_unique<Simulation>(
      w.options,
      std::make_unique<CheckedProtocol>(fedsu::fl::make_protocol(w.protocol)));
}

// The wrapper's timings of one step(); zero when the round made no sync.
struct StepCost {
  double check_s = 0.0;
  double sync_s = 0.0;
};

// Steps once and checks the round.
StepCost checked_step(Simulation& sim, RunAuditor& auditor, Tally& tally,
                      std::vector<RoundRecord>& records) {
  auto& protocol = static_cast<CheckedProtocol&>(sim.protocol());
  const long long syncs = protocol.syncs();
  records.push_back(sim.step());
  const bool synced = protocol.syncs() != syncs;
  std::string error = synced ? protocol.last_audit().error : std::string();
  const std::string clock = auditor.observe(sim, records.back());
  if (error.empty()) error = clock;
  tally.operation(error);
  if (!synced) return {};
  return {protocol.last_audit().check_s, protocol.last_audit().sync_s};
}

Pass run_pass(const Workload& w, bool full, bool trace, Tally& tally) {
  Pass pass;
  RunAuditor auditor;
  if (!w.options.checkpoint.dir.empty()) {
    std::filesystem::remove_all(w.options.checkpoint.dir);
  }
  const Clock::time_point setup_start = Clock::now();
  pass.sim = make_simulation(w);
  double check_s = 0.0;
  for (int r = 0; r < w.warmup_rounds; ++r) {
    check_s += checked_step(*pass.sim, auditor, tally, pass.records).check_s;
  }
  pass.setup_s = seconds_since(setup_start) - check_s;
  if (!full) {
    pass.checksum = state_checksum(pass.sim->global_state());
    return pass;
  }

  if (trace) fedsu::obs::Tracer::global().reset();
  for (int r = w.warmup_rounds; r < w.rounds; ++r) {
    RoundTiming t;
    t.begin_ns = fedsu::obs::Tracer::now_ns();
    const Clock::time_point start = Clock::now();
    const StepCost cost =
        checked_step(*pass.sim, auditor, tally, pass.records);
    t.wall_s = seconds_since(start) - cost.check_s;
    t.end_ns = fedsu::obs::Tracer::now_ns();
    t.sync_s = cost.sync_s;
    pass.run_wall_s += t.wall_s;
    pass.timing.push_back(t);
  }
  pass.checksum = state_checksum(pass.sim->global_state());
  return pass;
}

// The simulated outcome of a round; equal records mean equal runs.
bool same_outcome(const RoundRecord& a, const RoundRecord& b) {
  return a.round == b.round && a.round_time_s == b.round_time_s &&
         a.elapsed_time_s == b.elapsed_time_s && a.train_loss == b.train_loss &&
         a.test_accuracy == b.test_accuracy && a.bytes_up == b.bytes_up &&
         a.bytes_down == b.bytes_down &&
         a.num_participants == b.num_participants &&
         a.speculated_fraction == b.speculated_fraction &&
         a.fallback_syncs == b.fallback_syncs &&
         a.uploads_lost == b.uploads_lost;
}

std::string compare_passes(const Pass& a, const Pass& b, const char* what) {
  if (a.records.size() != b.records.size()) {
    return std::string(what) + ": round counts differ";
  }
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    if (!same_outcome(a.records[i], b.records[i])) {
      return std::string(what) + ": round " + std::to_string(i) +
             " differs";
    }
  }
  if (a.checksum != b.checksum) {
    return std::string(what) + ": final-model checksums differ";
  }
  return {};
}

// Restores the newest checkpoint of `pass` into a fresh simulation, replays
// the remaining cycles, and requires the uninterrupted outcome bit for bit.
void resume_check(const Workload& w, const Pass& pass, Tally& tally) {
  const std::string latest =
      fedsu::io::find_latest_run_checkpoint(w.options.checkpoint.dir);
  if (latest.empty()) {
    tally.fail("resume: no checkpoint was written");
    return;
  }
  auto sim = make_simulation(w);
  sim->restore_state(fedsu::io::load_run_checkpoint(latest));
  const int from = sim->rounds_completed();
  if (from >= w.rounds) {
    tally.fail("resume: the newest checkpoint leaves nothing to replay");
    return;
  }
  std::vector<RoundRecord> replayed;
  for (int r = from; r < w.rounds; ++r) {
    auto& protocol = static_cast<CheckedProtocol&>(sim->protocol());
    replayed.push_back(sim->step());
    std::string error = protocol.last_audit().error;
    if (error.empty() && !same_outcome(replayed.back(), pass.records[r])) {
      error = "resume: replayed cycle " + std::to_string(r) +
              " differs from the uninterrupted run";
    }
    tally.operation(error);
  }
  if (state_checksum(sim->global_state()) != pass.checksum) {
    tally.fail("resume: replayed final model differs from the uninterrupted "
               "run");
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.15g", value);
  return buf;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            format_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-30s %14s %s\n", m.name.c_str(),
                format_number(m.value).c_str(), m.unit.c_str());
  }
}

// Table I figures of one pass, from its records.
struct TargetCrossing {
  bool reached = false;
  double sim_time_s = 0.0;
  double bytes = 0.0;
  int rounds = 0;
};

TargetCrossing crossing(const std::vector<RoundRecord>& records,
                        float target) {
  TargetCrossing c;
  for (const RoundRecord& r : records) {
    c.bytes += static_cast<double>(r.bytes_up + r.bytes_down);
    if (r.test_accuracy && *r.test_accuracy >= target) {
      c.reached = true;
      c.sim_time_s = r.elapsed_time_s;
      c.rounds = r.round + 1;
      return c;
    }
  }
  return c;
}

class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {}
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --trace 0: set-up several times, then measured passes until `seconds` of
// measurement, each checked, then the resume check.
std::vector<Metric> run_untraced(const Workload& w, std::uint64_t seed,
                                 int seconds, Tally& tally) {
  std::vector<double> setups, run_walls, round_walls;
  std::optional<std::uint64_t> warm_checksum;
  for (int i = 0; i + 1 < kSetupRepeats; ++i) {
    Pass setup = run_pass(w, /*full=*/false, /*trace=*/false, tally);
    setups.push_back(setup.setup_s);
    if (warm_checksum && *warm_checksum != setup.checksum) {
      tally.fail("set-up repeats end in different models");
    }
    warm_checksum = setup.checksum;
  }
  Pass last;
  double measured = 0.0;
  do {
    Pass pass = run_pass(w, /*full=*/true, /*trace=*/false, tally);
    setups.push_back(pass.setup_s);
    run_walls.push_back(pass.run_wall_s);
    measured += pass.run_wall_s;
    // One sample per evaluation period (the mean step() over its rounds),
    // so that a median over rounds with and without an eval does not fall
    // into the gap between the two.
    const auto period =
        static_cast<std::size_t>(std::max(1, w.options.eval_every));
    const auto first =
        static_cast<std::size_t>(w.window_start - w.warmup_rounds);
    for (std::size_t i = first; i + period <= pass.timing.size();
         i += period) {
      double sum = 0.0;
      for (std::size_t k = i; k < i + period; ++k) sum += pass.timing[k].wall_s;
      round_walls.push_back(sum / static_cast<double>(period));
    }
    if (last.sim) tally.fail(compare_passes(last, pass, "repeat"));
    last = std::move(pass);
  } while (measured < seconds);

  const TargetCrossing c = crossing(last.records, w.target);
  if (!c.reached) {
    tally.fail(w.name + ": target accuracy " + format_number(w.target) +
               " not reached by round " + std::to_string(w.rounds));
  }
  const double peak_rss = fedsu::obs::sample_memory().peak_rss_bytes / kMiB;
  if (w.options.checkpoint.every > 0) resume_check(w, last, tally);
  std::printf("%s seed=%" PRIu64 " passes=%zu set-ups=%zu window samples=%zu "
              "final checksum=%016" PRIx64 "\n",
              w.name.c_str(), seed, run_walls.size(), setups.size(),
              round_walls.size(), last.checksum);
  if (c.reached) {
    std::printf("target crossed at round %d with %.1f%% of parameters "
                "predictable; %.1f%% at the window start (round %d)\n",
                c.rounds,
                100.0 * last.records[c.rounds - 1].speculated_fraction,
                100.0 * last.records[w.window_start].speculated_fraction,
                w.window_start);
  }
  return {
      {"setup_s", median(setups), "s"},
      {"run_wall_s", median(run_walls), "s"},
      {"round_wall_ms", median(round_walls) * 1e3, "ms"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"sim_time_to_target_s", c.sim_time_s, "sim_s"},
      {"bytes_to_target_mb", c.bytes / kMiB, "MB"},
      {"rounds_to_target", static_cast<double>(c.rounds), "rounds"},
      {"final_accuracy", last.sim->evaluate(), "fraction"},
  };
}

// Per-round sums of the named span over the measured window.
std::vector<double> span_ms_per_round(
    const std::vector<fedsu::obs::SpanEvent>& events,
    const std::vector<RoundTiming>& timing, const char* name) {
  std::vector<double> per_round(timing.size(), 0.0);
  for (const auto& e : events) {
    if (std::strcmp(e.name, name) != 0) continue;
    const auto it = std::upper_bound(
        timing.begin(), timing.end(), e.begin_ns,
        [](std::int64_t t, const RoundTiming& r) { return t < r.begin_ns; });
    if (it == timing.begin()) continue;
    const std::size_t round = static_cast<std::size_t>(it - timing.begin()) - 1;
    if (e.begin_ns <= timing[round].end_ns) {
      per_round[round] += (e.end_ns - e.begin_ns) * 1e-6;
    }
  }
  return per_round;
}

double mean_from(const std::vector<double>& v, std::size_t first) {
  if (first >= v.size()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = first; i < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - first);
}

// --trace 1: an untraced pass, a traced pass that must reproduce it bit for
// bit, and another untraced pass to time the tracing overhead against (the
// first pass of a process also pays for first-touch memory), then the
// per-layer probes.
std::vector<Metric> run_traced(const Workload& w,
                               const std::string& probe_dir, Tally& tally) {
  Pass plain = run_pass(w, /*full=*/true, /*trace=*/false, tally);
  if (w.options.checkpoint.every > 0) resume_check(w, plain, tally);
  plain.sim.reset();
  fedsu::obs::set_level(fedsu::obs::Level::kTrace);
  Pass traced = run_pass(w, /*full=*/true, /*trace=*/true, tally);
  const std::vector<fedsu::obs::SpanEvent> events =
      fedsu::obs::Tracer::global().snapshot();
  const std::uint64_t dropped = fedsu::obs::Tracer::global().dropped();
  fedsu::obs::set_level(fedsu::obs::Level::kOff);
  tally.fail(compare_passes(plain, traced, "traced run"));
  Pass untraced = run_pass(w, /*full=*/true, /*trace=*/false, tally);
  tally.fail(compare_passes(plain, untraced, "repeat"));
  untraced.sim.reset();
  if (dropped > 0) tally.fail("tracer dropped " + std::to_string(dropped) +
                              " spans");

  const std::size_t window = static_cast<std::size_t>(
      std::max(0, w.window_start - w.warmup_rounds));
  const auto& timing = traced.timing;
  auto span_mean = [&](const char* name) {
    return mean_from(span_ms_per_round(events, timing, name), window);
  };
  const double client_train = span_mean("client.train");
  const double sim_train = span_mean("sim.train");
  std::vector<double> sync_ms;
  for (const RoundTiming& t : timing) sync_ms.push_back(t.sync_s * 1e3);
  double bytes = 0.0, demotions = 0.0;
  std::size_t window_rounds = 0;
  for (const RoundRecord& r : traced.records) {
    demotions += r.fallback_syncs;
    if (r.round >= w.window_start) {
      bytes += static_cast<double>(r.bytes_up + r.bytes_down);
      ++window_rounds;
    }
  }
  const std::vector<double> timing_ms =
      span_ms_per_round(events, timing, "sim.timing");
  const std::size_t tenth = std::max<std::size_t>(1, timing_ms.size() / 10);
  double first = 0.0, last = 0.0;
  for (std::size_t i = 0; i < tenth && i < timing_ms.size(); ++i) {
    first += timing_ms[i];
    last += timing_ms[timing_ms.size() - 1 - i];
  }
  const auto* fedsu = traced.protocol().fedsu();

  // Where the host round went, from the phases step() records itself.
  RoundRecord::WallPhases phases;
  for (const RoundRecord& r : traced.records) {
    if (r.round < w.window_start) continue;
    phases.train_s += r.wall.train_s;
    phases.sync_s += r.wall.sync_s;
    phases.timing_s += r.wall.timing_s;
    phases.eval_s += r.wall.eval_s;
    phases.total_s += r.wall.total_s;
  }
  if (phases.total_s > 0.0) {
    const double pct = 100.0 / phases.total_s;
    std::printf("%s host round split over the window: train %.1f%%, sync "
                "%.1f%%, timing %.1f%%, eval %.1f%%, other %.1f%%\n",
                w.name.c_str(), phases.train_s * pct, phases.sync_s * pct,
                phases.timing_s * pct, phases.eval_s * pct,
                (phases.total_s - phases.train_s - phases.sync_s -
                 phases.timing_s - phases.eval_s) * pct);
  }

  const TrainingProbe training =
      probe_training(w.options, traced.sim->global_state());
  const CheckpointProbe checkpoint = probe_checkpoint(*traced.sim, probe_dir);
  return {
      {"tensor.gemm_gflops",
       gemm_gflops(w.options.model, w.options.local.batch_size), "GFLOP/s"},
      {"nn.forward_ms", training.forward_ms, "ms/batch"},
      {"nn.backward_ms", training.backward_ms, "ms/batch"},
      {"fl.client_train_ms", training.client_train_ms, "ms"},
      {"fl.train_parallel_efficiency",
       sim_train > 0.0 ? client_train / (kThreads * sim_train) : 0.0, "ratio"},
      {"fl.eval_ms", probe_eval_ms(*traced.sim), "ms"},
      {"core.sync_ms", mean_from(sync_ms, window), "ms/round"},
      {"core.speculate_ms", span_mean("core.fedsu.speculate"), "ms/round"},
      {"core.feedback_ms", span_mean("core.fedsu.feedback"), "ms/round"},
      {"core.diagnosis_ms", span_mean("core.fedsu.diagnosis"), "ms/round"},
      {"core.predictable_fraction",
       traced.protocol().last_round_telemetry().speculated_fraction,
       "fraction"},
      {"core.demotions", demotions, "count"},
      {"core.bytes_per_round_mb",
       window_rounds ? bytes / window_rounds / kMiB : 0.0, "MB"},
      {"core.error_store_mb",
       fedsu ? fedsu->error_store().resident_bytes() / kMiB : 0.0, "MB"},
      {"net.timing_ms", span_mean("sim.timing"), "ms/round"},
      {"net.timing_growth", first > 0.0 ? last / first : 0.0, "ratio"},
      {"io.checkpoint_ms", checkpoint.ms, "ms"},
      {"io.checkpoint_mb", checkpoint.mb, "MB"},
      {"obs.trace_overhead_s", traced.run_wall_s - untraced.run_wall_s, "s"},
  };
}

// Every workload for a few rounds with every check, traced and untraced.
void run_quick(const Args& args, const std::string& dir, Tally& tally) {
  for (const std::string& name : workload_names()) {
    Workload w = make_workload(name, args.seed, kThreads, args.protocol,
                               /*quick=*/true);
    w.options.checkpoint.dir = dir + "/run";
    run_traced(w, dir + "/probe", tally);
    std::printf("%s: %d rounds checked\n", name.c_str(), w.rounds);
  }
}

int run(const Args& args) {
  fedsu::util::ThreadPool::set_global_threads(kThreads);
  fedsu::obs::set_level(fedsu::obs::Level::kOff);
  const ScratchDir dir(".bench_build/steadybench-" +
                       std::to_string(static_cast<long long>(getpid())));
  Tally tally;
  std::vector<Metric> metrics;
  if (args.quick) {
    run_quick(args, dir.path(), tally);
  } else {
    const bool all = args.workload == "all";
    for (const std::string& name :
         all ? workload_names() : std::vector<std::string>{args.workload}) {
      Workload w = make_workload(name, args.seed, kThreads, args.protocol,
                                 /*quick=*/false);
      w.options.checkpoint.dir = dir.path() + "/run";
      std::vector<Metric> m;
      if (args.trace) {
        m = run_traced(w, dir.path() + "/probe", tally);
        print_table(name + " per-layer (traced run)", m);
      } else {
        m = run_untraced(w, args.seed, args.seconds, tally);
        print_table(name + " end-to-end", m);
      }
      for (Metric& metric : m) {
        if (all) metric.name = name + "/" + metric.name;
        metrics.push_back(std::move(metric));
      }
    }
  }
  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace steadybench

int main(int argc, char** argv) {
  steadybench::Args args;
  try {
    args = steadybench::parse_args(argc, argv);
  } catch (const steadybench::UsageError& e) {
    std::fprintf(stderr, "steadybench: %s\n", e.what());
    return 2;
  }
  try {
    return steadybench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "steadybench: error: %s\n", e.what());
    return 1;
  }
}
