// perfbench: one command that runs a Shredder workload end to end, checks
// every output, and prints its metrics (README.md has the workloads, the
// metric-to-layer map and how to run it).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced, then again with a borrowed obs::Registry,
// obs::Tracer and host-clock spans, then replays one operation layer by
// layer, and prints the per-layer metrics. The last stdout line is always
// the result object {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

using Runner = PhaseResult (*)(const Options&, bool);

Runner runner_for(const std::string& workload) {
  if (workload == "backup_similar") return run_backup_similar;
  if (workload == "backup_churn") return run_backup_churn;
  if (workload == "incremental_compute") return run_incremental_compute;
  return nullptr;
}

MetricMap end_to_end(const PhaseResult& res, double* tail_pct) {
  const auto unit = [](const char* name) {
    for (const auto& spec : end_to_end_specs()) {
      if (std::strcmp(spec.name, name) == 0) return std::string(spec.unit);
    }
    return std::string();
  };
  MetricMap m;
  const auto put = [&](const char* name, double v) { m[name] = {v, unit(name)}; };
  put("setup_s", median(res.setup_s));
  put("ingest_mbps", static_cast<double>(res.op_bytes) / 1e6 / sum(res.op_s));
  put("op_s_p50", median(res.op_s));
  put("op_s_tail", tail(res.op_s, tail_pct));
  put("restore_mbps",
      static_cast<double>(res.restore_bytes) / 1e6 / sum(res.restore_s));
  put("virtual_gbps", median(res.virtual_gbps));
  put("reuse_fraction", res.reuse_den > 0 ? static_cast<double>(res.reuse_num) /
                                                static_cast<double>(res.reuse_den)
                                          : 0.0);
  put("peak_rss_mb", static_cast<double>(peak_rss_bytes()) / 1e6);
  return m;
}

std::string metrics_json(const MetricMap& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
           json_number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  return out + "}";
}

void print_metrics(const MetricMap& m) {
  for (const auto& [name, metric] : m) {
    std::printf("  %-36s %16.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

void print_phase(const char* label, const PhaseResult& res) {
  std::printf("%s: %zu timed ops, %llu attempted, %llu failed\n", label,
              res.op_s.size(), static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (const auto& [name, v] : res.figures) {
    std::printf("  %-36s %16.6g\n", name.c_str(), v);
  }
  for (const auto& note : res.notes) std::printf("  %s\n", note.c_str());
  for (const auto& err : res.errors) std::printf("  ERROR: %s\n", err.c_str());
}

int run(const Options& opts, const std::string& commit) {
  const Runner runner = runner_for(opts.workload);
  if (runner == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opts.workload.c_str());
    return 2;
  }
  const std::string host = host_record_json(commit);
  std::printf("host: %s\n", host.c_str());

  PhaseResult untraced = runner(opts, /*traced=*/false);
  print_phase("untraced run", untraced);
  std::uint64_t attempted = untraced.attempted;
  std::uint64_t failed = untraced.failed;
  MetricMap metrics;
  if (!opts.trace) {
    double pct = 0;
    metrics = end_to_end(untraced, &pct);
    std::printf("end-to-end metrics (%s, seed %llu; op_s_tail is p%.1f of %zu "
                "ops):\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), pct,
                untraced.op_s.size());
  } else {
    PhaseResult traced = runner(opts, /*traced=*/true);
    print_phase("traced run", traced);
    attempted += traced.attempted;
    failed += traced.failed;
    metrics = traced.layer;
    // Layers off this workload's path report 0.
    for (const auto& spec : layer_specs()) {
      metrics.emplace(spec.name, Metric{0.0, spec.unit});
    }
    metrics["obs.trace_overhead_fraction"].value =
        median(traced.op_s) / median(untraced.op_s) - 1.0;
    std::printf("per-layer metrics (%s, seed %llu):\n", opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed));
  }
  print_metrics(metrics);

  const bool correct = failed == 0 && attempted > 0;
  const std::string result = "{\"correct\": " +
                             std::string(correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(attempted) +
                             ", \"failed\": " + std::to_string(failed) +
                             ", \"metrics\": " + metrics_json(metrics) + "}";
  write_file(out_path(opts, opts.trace ? "trace1.json" : "trace0.json"),
             "{\"host\": " + host + ", \"result\": " + result + "}\n");
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

// Same seed twice (untraced, then traced) must give identical counts and
// virtual metrics; another seed must change the inputs.
int selftest() {
  int failures = 0;
  for (const char* workload :
       {"backup_similar", "backup_churn", "incremental_compute"}) {
    Options opts;
    opts.workload = workload;
    opts.scale = 8;
    opts.fixed_ops = 2;
    opts.out_dir = ".bench_out/selftest";
    const Runner runner = runner_for(workload);
    opts.seed = 1;
    const PhaseResult a = runner(opts, /*traced=*/false);
    const PhaseResult b = runner(opts, /*traced=*/true);
    opts.seed = 2;
    const PhaseResult c = runner(opts, /*traced=*/false);
    std::vector<std::string> problems;
    for (const PhaseResult* r : {&a, &b, &c}) {
      for (const auto& e : r->errors) problems.push_back(e);
    }
    if (a.determinism.size() != b.determinism.size()) {
      problems.push_back("seed 1 twice gave different numbers of values");
    } else {
      for (std::size_t i = 0; i < a.determinism.size(); ++i) {
        if (a.determinism[i] != b.determinism[i]) {
          problems.push_back("seed 1 twice: " + a.determinism[i].first + " " +
                             json_number(a.determinism[i].second) + " vs " +
                             json_number(b.determinism[i].second));
        }
      }
    }
    const auto prefix = [](const PhaseResult& r) {
      for (const auto& [name, v] : r.determinism) {
        if (name == "input_prefix") return v;
      }
      return -1.0;
    };
    if (prefix(a) < 0 || prefix(a) == prefix(c)) {
      problems.push_back("seeds 1 and 2 gave the same inputs");
    }
    std::printf("%s %s (%zu deterministic values)\n",
                problems.empty() ? "PASS" : "FAIL", workload,
                a.determinism.size());
    for (const auto& p : problems) std::printf("  %s\n", p.c_str());
    failures += problems.empty() ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--selftest") return perfbench::selftest();
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opts.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opts.trace = value() == "1";
    } else if (arg == "--commit") {
      commit = value();
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  try {
    return perfbench::run(opts, commit);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
