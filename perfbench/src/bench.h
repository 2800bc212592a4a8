// Shared types of the end-to-end benchmark: options, host-clock spans,
// per-phase results and the metric maps printed at the end.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/timer.h"
#include "core/shredder.h"
#include "dedup/index.h"

namespace perfbench {

// Shared by every workload: set-up repetitions per phase, simulated-device
// and MapReduce worker threads (the host has 4 vCPUs), and the device
// dispatch unit. Small buffers keep the per-run pinned ring and device twins
// of the dedicated backend (re-allocated and zeroed on every Shredder::run)
// from dominating the resident set.
constexpr int kSetupReps = 15;
constexpr std::size_t kThreads = 4;
constexpr std::size_t kBufferBytes = 4ull << 20;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Input sizes are divided by `scale` (the self-test runs small inputs).
  std::uint64_t scale = 1;
  // > 0: run exactly this many timed operations instead of `seconds`.
  std::uint64_t fixed_ops = 0;
  std::string out_dir = ".bench_out";
};

// Keeps a phase issuing operations until its time (or op count) is spent.
class OpBudget {
 public:
  explicit OpBudget(const Options& opts) : opts_(opts) {}
  bool more(std::uint64_t done) const {
    return opts_.fixed_ops > 0 ? done < opts_.fixed_ops
                               : wall_.elapsed_seconds() < opts_.seconds;
  }

 private:
  const Options& opts_;
  shredder::Stopwatch wall_;
};

// "<out_dir>/<workload>-seed<n>.<what>": where a phase writes its traces.
std::string out_path(const Options& opts, const std::string& what);

// Host-clock spans recorded by the benchmark around every call it makes into
// the program's public API. Kept in memory and written out at the end as
// Chrome trace-event JSON (name, start, end, parent span id).
class HostTrace {
 public:
  explicit HostTrace(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope() = default;
    Scope(HostTrace* trace, std::size_t index) : trace_(trace), index_(index) {}
    Scope(Scope&& other) noexcept
        : trace_(other.trace_), index_(other.index_) {
      other.trace_ = nullptr;
    }
    Scope& operator=(Scope&&) = delete;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (trace_ != nullptr) trace_->close(index_);
    }

   private:
    HostTrace* trace_ = nullptr;
    std::size_t index_ = 0;
  };

  // Opens a span nested under the innermost open one; closed by the Scope.
  Scope open(const std::string& name);
  // Host seconds of every closed span named `name`, in closing order.
  std::vector<double> durations(const std::string& name) const;
  void write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = -1;
    long parent = -1;
  };
  void close(std::size_t index);

  bool enabled_;
  shredder::Stopwatch clock_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// Runs `fn` inside a span named `name` and returns its host seconds.
template <typename F>
double timed(HostTrace& trace, const std::string& name, F&& fn) {
  const auto scope = trace.open(name);
  shredder::Stopwatch sw;
  fn();
  return sw.elapsed_seconds();
}

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

// One timed pass of a workload: the untraced run, or the traced run.
struct PhaseResult {
  std::vector<double> setup_s;        // one per set-up repetition
  std::vector<double> op_s;           // host seconds per primary operation
  std::uint64_t op_bytes = 0;         // user bytes the timed ops processed
  std::vector<double> restore_s;      // host seconds per read-back
  std::uint64_t restore_bytes = 0;
  std::vector<double> virtual_gbps;   // modelled bandwidth per op
  std::uint64_t reuse_num = 0;        // duplicate chunks / memoized maps
  std::uint64_t reuse_den = 0;        // chunks / map tasks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;    // wrong outputs and failed operations
  // Workload-specific figures, printed in the report (and, in a traced run,
  // turned into per-layer metrics).
  std::map<std::string, double> figures;
  // Values that must repeat exactly for a repeated seed (self-test).
  std::vector<std::pair<std::string, double>> determinism;
  // Per-layer metrics (traced run only).
  MetricMap layer;
  std::vector<std::string> notes;

  void fail(const std::string& what) {
    ++failed;
    errors.push_back(what);
  }
};

// Where each layer's host time goes, measured by replaying one primary
// operation's inputs through each layer's public entry point.
struct ReplayInput {
  std::vector<shredder::ByteSpan> inputs;  // one op's user bytes
  shredder::ByteSpan seed_input;           // data the index/store already hold
  shredder::core::ShredderConfig shredder;  // chunker + pipeline settings
  shredder::dedup::IndexConfig index;
};

struct ReplayResult {
  double chunk_s = 0;        // Shredder::run, fingerprinting off
  double chunk_fp_s = 0;     // Shredder::run, fingerprinting on
  double sha256_mbps = 0;    // Sha256::hash over the op's chunks
  double probe_us = 0;       // lookup_or_insert per probe
  double put_us = 0;         // ChunkStore::put per chunk
  std::uint64_t chunks = 0;  // chunks in the op's inputs
  std::uint64_t bytes = 0;
};

ReplayResult replay_layers(const ReplayInput& in);

// --- metric catalogue ---------------------------------------------------------
// The single list of metric names and units; BENCHMARK.json
// mirrors it and run.py checks every result against that file.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& end_to_end_specs();
const std::vector<MetricSpec>& layer_specs();
// Sets a per-layer metric; throws on a name missing from layer_specs().
void set_layer(PhaseResult& res, const std::string& name, double value);

// --- statistics -------------------------------------------------------------
double median(std::vector<double> v);
// The highest percentile with at least ten samples beyond it (the maximum
// when there are fewer than eleven samples). `pct` receives the percentile.
double tail(std::vector<double> v, double* pct);
double sum(const std::vector<double>& v);
std::uint64_t peak_rss_bytes();

// --- host record ------------------------------------------------------------
// JSON object describing the CPU, toolchain, build and a short calibration
// (single-thread scan_buffer, memory read, scalar SHA-256).
std::string host_record_json(const std::string& commit);

// --- workloads --------------------------------------------------------------
// Each runs one phase: set-up (repeated), one untimed warm-up op, then timed
// ops for opts.seconds (or opts.fixed_ops), checking every output. With
// `traced` the program gets a borrowed obs::Registry/obs::Tracer, host spans
// are recorded, and the phase ends with the layer replay.
PhaseResult run_backup_similar(const Options& opts, bool traced);
PhaseResult run_backup_churn(const Options& opts, bool traced);
PhaseResult run_incremental_compute(const Options& opts, bool traced);

// Writes `text` to `path`, creating the directory; false on failure.
bool write_file(const std::string& path, const std::string& text);
std::string json_number(double v);

}  // namespace perfbench
