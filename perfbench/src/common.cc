#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

HostTrace::Scope HostTrace::open(const std::string& name) {
  if (!enabled_) return {};
  Span span;
  span.name = name;
  span.start = clock_.elapsed_seconds();
  span.parent = open_.empty() ? -1 : static_cast<long>(open_.back());
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

void HostTrace::close(std::size_t index) {
  spans_[index].end = clock_.elapsed_seconds();
  // Scopes are strictly nested, so the closing span is the innermost one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> HostTrace::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name && s.end >= s.start) out.push_back(s.end - s.start);
  }
  return out;
}

void HostTrace::write_json(const std::string& path) const {
  std::string out = "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%ld}}",
                  i == 0 ? "" : ",\n", s.name.c_str(), s.start * 1e6,
                  std::max(0.0, s.end - s.start) * 1e6, i, s.parent);
    out += buf;
  }
  out += "\n]}\n";
  write_file(path, out);
}

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"ingest_mbps", "MB/s"},
      {"op_s_p50", "s"},
      {"op_s_tail", "s"},
      {"restore_mbps", "MB/s"},
      {"virtual_gbps", "Gb/s"},
      {"reuse_fraction", "fraction"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& layer_specs() {
  static const std::vector<MetricSpec> specs = {
      // core
      {"core.chunk_host_s", "s"},
      {"core.fingerprint_host_s", "s"},
      {"pipeline.stage_v_s.reader", "virt_s"},
      {"pipeline.stage_v_s.h2d", "virt_s"},
      {"pipeline.stage_v_s.kernel", "virt_s"},
      {"pipeline.stage_v_s.fingerprint", "virt_s"},
      {"pipeline.stage_v_s.store", "virt_s"},
      // gpusim
      {"gpusim.h2d_busy_v_s", "virt_s"},
      {"gpusim.compute_busy_v_s", "virt_s"},
      {"gpusim.d2h_busy_v_s", "virt_s"},
      {"gpusim.device_occupancy", "fraction"},
      // chunking
      {"chunking.chunks", "count"},
      {"chunking.mean_chunk_bytes", "bytes"},
      // dedup
      {"dedup.sha256_host_mbps", "MB/s"},
      {"dedup.index_probe_host_us", "us"},
      {"dedup.store_put_host_us", "us"},
      {"dedup.index.probes", "count"},
      {"dedup.index.inserts", "count"},
      {"dedup.index.signature_hits", "count"},
      {"dedup.index.false_signature_hits", "count"},
      {"dedup.index.flash_reads", "count"},
      {"dedup.index.cache_hits", "count"},
      {"dedup.index_v_s", "virt_s"},
      {"dedup.store.chunks", "count"},
      {"dedup.store.bytes", "bytes"},
      {"dedup.store.refs", "count"},
      // backup
      {"backup.stage_v_s.generation", "virt_s"},
      {"backup.stage_v_s.chunking", "virt_s"},
      {"backup.stage_v_s.hashing", "virt_s"},
      {"backup.stage_v_s.index", "virt_s"},
      {"backup.stage_v_s.link", "virt_s"},
      {"backup.duplicate_chunk_fraction", "fraction"},
      {"backup.wire_bytes_per_byte", "ratio"},
      {"backup.stored_bytes_per_user_byte", "ratio"},
      {"backup.recreate_host_s", "s"},
      {"backup.other_host_s", "s"},
      {"transport.frames_sent", "count"},
      {"transport.retransmits", "count"},
      {"transport.repair_frames", "count"},
      {"transport.window_stall_v_s", "virt_s"},
      {"transport.goodput_v_gbps", "virt_Gb/s"},
      // service
      {"service.device_occupancy", "fraction"},
      {"service.h2d_busy_fraction", "fraction"},
      {"service.max_queue_depth", "count"},
      // retention
      {"retention.delete_host_s", "s"},
      {"retention.gc_host_s", "s"},
      {"retention.compact_host_s", "s"},
      {"retention.reclaim_s_p50", "s"},
      {"retention.bytes_freed", "bytes"},
      {"retention.kept_pinned", "count"},
      {"retention.entry_log_shrink", "fraction"},
      {"retention.manifest_records_dropped", "count"},
      {"retention.reclaimed_fraction", "fraction"},
      // inchdfs
      {"inchdfs.upload_host_s", "s"},
      {"inchdfs.read_splits_host_s", "s"},
      {"inchdfs.job_host_s", "s"},
      {"inchdfs.map_reused", "count"},
      {"inchdfs.reduce_reused", "count"},
      {"inchdfs.memo_entries", "count"},
      // obs
      {"obs.trace_overhead_fraction", "fraction"},
  };
  return specs;
}

void set_layer(PhaseResult& res, const std::string& name, double value) {
  for (const auto& spec : layer_specs()) {
    if (name == spec.name) {
      res.layer[name] = Metric{value, spec.unit};
      return;
    }
  }
  throw std::logic_error("perfbench: unknown per-layer metric " + name);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail(std::vector<double> v, double* pct) {
  if (v.empty()) {
    if (pct != nullptr) *pct = 0;
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Nearest-rank: the sample at rank r (1-based) has n - r samples beyond it.
  const std::size_t rank = n > 10 ? n - 10 : n;
  if (pct != nullptr) *pct = 100.0 * static_cast<double>(rank) / n;
  return v[rank - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

std::uint64_t peak_rss_bytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
}

std::string out_path(const Options& opts, const std::string& what) {
  return opts.out_dir + "/" + opts.workload + "-seed" +
         std::to_string(opts.seed) + "." + what;
}

bool write_file(const std::string& path, const std::string& text) {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << text;
  return static_cast<bool>(f);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    throw std::runtime_error("perfbench: non-finite metric value");
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
