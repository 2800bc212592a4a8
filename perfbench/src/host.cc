// Host record: what machine and build produced a result, plus a short
// calibration so host drift can be told apart from a regression.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "chunking/cdc.h"
#include "common/rng.h"
#include "dedup/sha256.h"
#include "rabin/rabin.h"

namespace perfbench {
namespace {

std::string cpuinfo_field(const std::string& key) {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto value = line.substr(colon + 1);
        value.erase(0, value.find_first_not_of(" \t"));
        return value;
      }
    }
  }
  return "";
}

bool has_flag(const std::string& flags, const std::string& flag) {
  std::istringstream in(flags);
  std::string f;
  while (in >> f) {
    if (f == flag) return true;
  }
  return false;
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// Best of three: calibration wants the host's capability, not its noise.
template <typename F>
double best_seconds(F&& fn) {
  double best = 1e300;
  for (int i = 0; i < 3; ++i) {
    shredder::Stopwatch sw;
    fn();
    best = std::min(best, sw.elapsed_seconds());
  }
  return best;
}

}  // namespace

std::string host_record_json(const std::string& commit) {
  using namespace shredder;
  const std::string flags = cpuinfo_field("flags");

  // Calibration inputs: 16 MiB of seeded random bytes.
  constexpr std::size_t kBytes = 16ull << 20;
  const ByteVec data = random_bytes(kBytes, 12345);

  chunking::ChunkerConfig cfg;
  cfg.window = 48;
  cfg.mask_bits = 12;
  const rabin::RabinTables tables(cfg.window);
  std::uint64_t boundaries = 0;
  const double scan_s = best_seconds([&] {
    boundaries = 0;
    chunking::scan_buffer(tables, cfg, as_bytes(data), 0, 0,
                          [&](std::uint64_t, std::uint64_t) { ++boundaries; });
  });

  volatile std::uint64_t sink = 0;
  const double read_s = best_seconds([&] {
    std::uint64_t acc = 0;
    const auto* words = reinterpret_cast<const std::uint64_t*>(data.data());
    for (std::size_t i = 0; i < kBytes / 8; ++i) acc += words[i];
    sink = acc;
  });
  (void)sink;

  dedup::Sha256Digest digest;
  const double sha_s =
      best_seconds([&] { digest = dedup::Sha256::hash(as_bytes(data)); });

  const double mb = static_cast<double>(kBytes) / 1e6;
  std::ostringstream out;
  out << "{\"cpu_model\":\"" << escape(cpuinfo_field("model name")) << "\""
      << ",\"flags\":{\"sha_ni\":" << (has_flag(flags, "sha_ni") ? "true" : "false")
      << ",\"avx2\":" << (has_flag(flags, "avx2") ? "true" : "false")
      << ",\"avx512f\":" << (has_flag(flags, "avx512f") ? "true" : "false") << "}"
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"compiler\":\"" << escape(PERFBENCH_COMPILER) << "\""
      << ",\"build_type\":\"" << escape(PERFBENCH_BUILD_TYPE) << "\""
      << ",\"commit\":\"" << escape(commit) << "\""
      << ",\"calibration\":{\"scan_buffer_mbps\":" << json_number(mb / scan_s)
      << ",\"memory_read_gbps\":" << json_number(mb / 1e3 / read_s)
      << ",\"sha256_scalar_mbps\":" << json_number(mb / sha_s)
      << ",\"scan_boundaries\":" << boundaries
      << ",\"sha256_prefix\":" << digest.prefix64() << "}}";
  return out.str();
}

}  // namespace perfbench
