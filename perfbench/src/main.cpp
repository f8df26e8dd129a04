// perfbench — end-to-end benchmark of the single-trace attack.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process runs one workload as a closed loop of one client: set-up
// (repeated; its median is setup_s), determinism checks, then ops until
// --seconds have passed and at least kMinOps ops ran. Every op passes its
// correctness gates or counts as failed. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; the metrics are
// the end-to-end set (--trace 0) or the per-layer time budget (--trace 1),
// whose traced ops alternate with untraced ones so that the tracing
// overhead is measured in the same run.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"

namespace {

using namespace perfbench;

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetupRuns = 7;
/// Ops per run at least: p90 then has >= 10 samples beyond it.
constexpr std::size_t kMinOps = 100;
/// Hard stop for the op loop, well inside the 180 s a run may take.
constexpr double kMaxLoopSeconds = 120.0;
/// A traced workload whose named layers cover less of the op time is flagged.
constexpr double kMinCoverage = 0.90;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper_trace|degraded_campaign|toy_recovery|hint_curve> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
      have[1] = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) usage("--seconds takes a positive number");
      have[2] = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace takes 0 or 1");
      args.trace = value[0] == '1';
      have[3] = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) usage("all four flags are required");
  return args;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "paper_trace") return make_paper_trace(args.seed);
  if (args.workload == "degraded_campaign") return make_degraded_campaign(args.seed);
  if (args.workload == "toy_recovery") return make_toy_recovery(args.seed);
  if (args.workload == "hint_curve") return make_hint_curve(args.seed);
  usage(("unknown workload " + args.workload).c_str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Per-layer metric stems (see BENCHMARK.json). Op layers get _ms (median
// per traced op), _min_ms and _share (of the summed op time).
const char* const kOpLayers[] = {
    "riscv.victim",  "power.leakage", "power.noise",          "power.faults",
    "sca.capture_segment", "sca.segment", "sca.classify",     "core.hints",
    "core.residual_search", "seal.encrypt", "seal.recover",   "lwe.integrate",
    "lwe.estimate",  "lattice.bkz_sim", "core.replica",
};
const char* const kSetupLayers[] = {"core.profile", "sca.train"};
// Per-op counts and other per-op values (median over traced ops).
const std::pair<const char*, const char*> kCounts[] = {
    {"riscv.instructions", "count"},     {"power.samples", "count"},
    {"sca.segment_attempts", "count"},   {"sca.abstained_share", "ratio"},
    {"core.hints_perfect", "count"},     {"core.hints_approximate", "count"},
    {"core.hints_sign_only", "count"},   {"core.hints_skipped", "count"},
    {"core.residual_tries", "count"},    {"core.capture_span_ms", "ms"},
};

double value_or_zero(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double na_to_zero(double v) { return v < 0.0 ? 0.0 : v; }

std::vector<Metric> layer_metrics(const LayerLog& log, const std::vector<double>& untraced_ms,
                                  const Quality& quality, std::size_t workers,
                                  std::vector<std::string>& notes) {
  std::vector<Metric> out;
  const auto& rows = log.rows();
  double total_op = 0.0;
  double total_named = 0.0;
  std::vector<double> op_ms;
  std::vector<double> unattributed;
  for (const auto& row : rows) {
    double named = 0.0;
    for (const char* layer : kOpLayers) named += value_or_zero(row.ms, layer);
    total_op += row.op_ms;
    total_named += named;
    op_ms.push_back(row.op_ms);
    unattributed.push_back(row.op_ms - named);
  }
  for (const char* layer : kOpLayers) {
    std::vector<double> per_op;
    double total = 0.0;
    for (const auto& row : rows) {
      per_op.push_back(value_or_zero(row.ms, layer));
      total += per_op.back();
    }
    const std::string stem = layer;
    out.push_back({stem + "_ms", median(per_op), "ms"});
    out.push_back({stem + "_min_ms", percentile(per_op, 0.0), "ms"});
    out.push_back({stem + "_share", total_op > 0.0 ? total / total_op : 0.0, "ratio"});
  }
  for (const char* layer : kSetupLayers) {
    const auto it = log.setup().find(layer);
    out.push_back({std::string(layer) + "_ms",
                   it == log.setup().end() ? 0.0 : median(it->second), "ms"});
  }
  for (const auto& [name, unit] : kCounts) {
    std::vector<double> per_op;
    for (const auto& row : rows) per_op.push_back(value_or_zero(row.counts, name));
    out.push_back({name, median(per_op), unit});
  }
  double tries = 0.0;
  double recovered = 0.0;
  for (const auto& row : rows) {
    tries += value_or_zero(row.counts, "core.residual_tries");
    recovered += value_or_zero(row.counts, "core.recovered");
  }
  out.push_back({"core.residual_tries_per_recovery", recovered > 0.0 ? tries / recovered : 0.0,
                 "count"});
  out.push_back({"quality.sign_accuracy", na_to_zero(quality.sign_accuracy), "ratio"});
  out.push_back({"quality.value_accuracy", na_to_zero(quality.value_accuracy), "ratio"});
  out.push_back({"quality.hint_yield", na_to_zero(quality.hint_yield), "ratio"});
  out.push_back({"quality.recovery_rate", na_to_zero(quality.recovery_rate), "ratio"});

  const double covered = total_op > 0.0 ? total_named / total_op : 0.0;
  const double traced_p50 = median(op_ms);
  out.push_back({"traced_op_ms", traced_p50, "ms"});
  out.push_back({"unattributed_ms", median(unattributed), "ms"});
  out.push_back({"unattributed_share", 1.0 - covered, "ratio"});
  out.push_back({"covered_share", covered, "ratio"});
  out.push_back({"budget_flagged", covered < kMinCoverage ? 1.0 : 0.0, "count"});
  out.push_back({"trace_overhead_ms", traced_p50 - median(untraced_ms), "ms"});
  out.push_back({"hardware_concurrency",
                 static_cast<double>(std::thread::hardware_concurrency()), "count"});
  out.push_back({"workers", static_cast<double>(workers), "count"});
  if (covered < kMinCoverage) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "FLAG: named layers cover %.1f%% of traced op time (< %.0f%%)",
                  100.0 * covered, 100.0 * kMinCoverage);
    notes.emplace_back(buf);
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::unique_ptr<Workload> workload = make_workload(args);
  LayerLog log;
  LayerLog* trace_log = args.trace ? &log : nullptr;

  std::vector<std::string> problems;
  std::vector<double> setup_s;
  try {
    for (std::size_t r = 0; r < kSetupRuns; ++r) {
      const auto t0 = Clock::now();
      workload->setup(trace_log);
      setup_s.push_back(ms_since(t0) / 1e3);
    }
    workload->check_determinism();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }

  std::vector<double> op_ms;  // untraced ops; traced ones land in the log
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto loop_start = Clock::now();
  double elapsed = 0.0;
  const std::size_t cycle = workload->op_cycle();
  while ((elapsed < args.seconds || attempted < kMinOps || attempted % cycle != 0) &&
         elapsed < kMaxLoopSeconds) {
    const bool traced = args.trace && attempted % 2 == 1;
    if (traced) log.begin_op();
    try {
      const double ms = workload->run_op(attempted, traced ? &log : nullptr);
      if (traced) {
        log.end_op(ms);
      } else {
        op_ms.push_back(ms);
      }
    } catch (const std::exception& e) {
      if (traced) log.discard_op();
      ++failed;
      if (problems.size() < 5)
        problems.emplace_back("op " + std::to_string(attempted) + ": " + e.what());
    }
    ++attempted;
    elapsed = ms_since(loop_start) / 1e3;
  }
  const std::size_t completed = attempted - failed;
  const Quality quality = workload->quality();
  const bool correct = failed == 0;

  std::printf("workload %s  seed %llu  %zu set-ups  %zu ops (%zu failed) in %.2f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), setup_s.size(),
              attempted, failed, elapsed);
  for (const std::string& p : problems) std::printf("  FAILED %s\n", p.c_str());

  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  if (!args.trace) {
    std::size_t beyond_p90 = 0;
    const double p90 = percentile(op_ms, 0.9);
    for (const double ms : op_ms) beyond_p90 += ms > p90;
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"op_ms_p50", median(op_ms), "ms"},
        {"op_ms_p90", p90, "ms"},
        {"ops_per_s", static_cast<double>(completed) / elapsed, "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"bikz", quality.bikz, "bikz"},
    };
    // Every end-to-end figure, by name and unit; the five below are not in
    // the JSON metrics because they can be 0 (see perfbench/README.md).
    std::printf("  %-16s %14s  %s\n", "metric", "value", "unit");
    for (const Metric& m : metrics)
      std::printf("  %-16s %14.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    const auto print_quality = [](const char* name, double v) {
      if (v < 0.0) {
        std::printf("  %-16s %14s  ratio\n", name, "n/a");
      } else {
        std::printf("  %-16s %14.6g  ratio\n", name, v);
      }
    };
    print_quality("failed_share", static_cast<double>(failed) / static_cast<double>(attempted));
    print_quality("sign_accuracy", quality.sign_accuracy);
    print_quality("value_accuracy", quality.value_accuracy);
    print_quality("hint_yield", quality.hint_yield);
    print_quality("recovery_rate", quality.recovery_rate);
    std::printf("  op samples %zu, %zu beyond p90; setup_s samples:", op_ms.size(), beyond_p90);
    for (const double s : setup_s) std::printf(" %.4f", s);
    std::printf("\n");
  } else {
    metrics = layer_metrics(log, op_ms, quality, workload->workers(), notes);
    std::printf("  per-layer budget over %zu traced ops (%zu untraced alongside)\n",
                log.rows().size(), op_ms.size());
    for (const Metric& m : metrics)
      std::printf("  %-36s %14.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    for (const std::string& n : notes) std::printf("  %s\n", n.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
