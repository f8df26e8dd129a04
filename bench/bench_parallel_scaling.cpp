// Parallel campaign-engine scaling (infrastructure bench): throughput of
// the full recovery campaign (capture -> robust segmentation -> sign/value
// classification -> hint routing) at increasing worker counts, with the
// byte-identity guarantee re-checked at every point.
//
// Speedup is bounded by the physical cores of the measurement host — the
// engine guarantees identical *results* at any worker count, while the
// *throughput* column is hardware-dependent. The JSON therefore records
// hardware_concurrency next to the timings; on a single-core runner every
// speedup is ~1.0 by construction and the bench only proves determinism
// plus the absence of slowdown-by-contention.
//
// Emits BENCH_parallel_scaling.json.

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/attack.hpp"
#include "core/campaign_runner.hpp"
#include "core/hints.hpp"
#include "core/parallel.hpp"
#include "lwe/dbdd.hpp"

using namespace reveal;
using namespace reveal::core;

namespace {

struct Point {
  std::size_t workers = 0;
  double seconds = 0.0;
  double traces_per_sec = 0.0;
  double speedup = 1.0;
  bool matches_serial = false;
};

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  const std::size_t profiling_runs = static_cast<std::size_t>(
      bench::flag_value(argc, argv, "--profiling", full ? 400 : 200));
  const std::size_t captures = static_cast<std::size_t>(
      bench::flag_value(argc, argv, "--captures", full ? 32 : 12));

  bench::print_header(
      "Parallel campaign scaling (infrastructure)",
      "Recovery-campaign throughput vs worker count; results byte-identical.");
  std::printf("\nhardware_concurrency: %u, campaign: %zu captures\n",
              std::thread::hardware_concurrency(), captures);

  CampaignConfig cfg = bench::default_campaign(64);
  cfg.num_workers = 0;  // profiling below times the serial reference too
  RevealAttack attack(bench::gated_attack_config());
  {
    SamplerCampaign profiler(cfg);
    std::printf("training on %zu clean profiling runs...\n", profiling_runs);
    attack.train(profiler.collect_windows(profiling_runs, /*seed_base=*/1));
  }

  const lwe::DbddParams params = bench::seal128_params();
  const HintPolicy policy;
  const std::vector<std::uint64_t> seeds = CampaignRunner::stream_seeds(90000, captures);

  const std::vector<std::size_t> worker_counts = {0, 1, 2, 4, 8};
  std::vector<Point> points;
  RecoveryCampaignResult serial_result;
  double serial_seconds = 0.0;

  for (const std::size_t workers : worker_counts) {
    CampaignRunner runner(workers);
    const bench::Timer timer;
    const RecoveryCampaignResult result =
        runner.run_recovery_campaign(attack, cfg, seeds, policy, params);

    Point p;
    p.workers = workers;
    p.seconds = timer.ms() / 1e3;
    p.traces_per_sec = static_cast<double>(captures) / p.seconds;
    if (workers == 0) {
      serial_result = result;
      serial_seconds = p.seconds;
      p.matches_serial = true;
    } else {
      p.matches_serial = result.report == serial_result.report &&
                         result.hints == serial_result.hints;
    }
    p.speedup = serial_seconds / p.seconds;
    points.push_back(p);
    std::printf("  workers %zu%s: %7.3f s  %6.1f traces/s  speedup %4.2fx  %s\n",
                workers, workers == 0 ? " (serial)" : "        ", p.seconds,
                p.traces_per_sec, p.speedup,
                p.matches_serial ? "results identical" : "RESULTS DIVERGE");
  }

  bool all_match = true;
  for (const Point& p : points) all_match = all_match && p.matches_serial;
  std::printf("\nbyte-identical across all worker counts: %s\n",
              all_match ? "PASS" : "FAIL");
  bench::print_note(
      "speedup is bounded by physical cores; see hardware_concurrency in the JSON.");

  bench::JsonWriter json;
  json.count("hardware_concurrency", std::thread::hardware_concurrency())
      .count("captures", captures).num("serial_seconds", serial_seconds, "%.6f")
      .array("points");
  for (const Point& p : points) {
    json.object().count("workers", p.workers).num("seconds", p.seconds, "%.6f")
        .num("traces_per_sec", p.traces_per_sec, "%.3f").num("speedup", p.speedup, "%.4f")
        .flag("matches_serial", p.matches_serial).end();
  }
  json.end().flag("byte_identical", all_match);
  if (!json.write("BENCH_parallel_scaling.json")) return 1;

  return all_match ? 0 : 1;
}
