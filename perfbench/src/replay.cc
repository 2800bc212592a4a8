// Layer replay: splits one primary operation's host time by layer, timing
// each layer's public entry point from outside on the same inputs —
// Shredder::run with fingerprinting off and on, Sha256::hash over the
// chunks, IndexBackend::lookup_or_insert on a fresh pre-seeded index of the
// workload's kind, and ChunkStore::put on a pre-seeded store.
#include <stdexcept>

#include "bench.h"
#include "dedup/store.h"

namespace perfbench {
namespace {

using namespace shredder;

constexpr int kReps = 5;

// Runs Shredder through the batch-sink path the backup server uses.
class NullSink final : public ChunkSink {
 public:
  void on_batch(const ChunkBatchView&) override {}
};

struct Chunked {
  std::vector<chunking::Chunk> chunks;
  std::vector<dedup::ChunkDigest> digests;
  ByteSpan data;
};

}  // namespace

ReplayResult replay_layers(const ReplayInput& in) {
  ReplayResult out;
  core::ShredderConfig off_cfg = in.shredder;
  off_cfg.fingerprint_on_device = false;
  off_cfg.registry = nullptr;
  core::ShredderConfig on_cfg = off_cfg;
  on_cfg.fingerprint_on_device = true;
  core::Shredder off(off_cfg);
  core::Shredder on(on_cfg);

  std::vector<double> t_off, t_on;
  std::vector<Chunked> op;  // the op's chunks + device digests
  for (int rep = 0; rep < kReps; ++rep) {
    Stopwatch sw;
    for (const ByteSpan input : in.inputs) {
      NullSink sink;
      off.run(input, sink);
    }
    t_off.push_back(sw.elapsed_seconds());
  }
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<Chunked> chunked;
    Stopwatch sw;
    for (const ByteSpan input : in.inputs) {
      NullSink sink;
      auto r = on.run(input, sink);
      chunked.push_back({std::move(r.chunks), std::move(r.digests), input});
    }
    t_on.push_back(sw.elapsed_seconds());
    if (rep == 0) op = std::move(chunked);
  }
  out.chunk_s = median(t_off);
  out.chunk_fp_s = median(t_on);
  for (const auto& c : op) {
    out.chunks += c.chunks.size();
    out.bytes += c.data.size();
  }

  // Host SHA-256 over the same chunks; must reproduce the device digests.
  std::vector<double> t_sha;
  for (int rep = 0; rep < kReps; ++rep) {
    bool match = true;
    Stopwatch sw;
    for (const auto& c : op) {
      for (std::size_t i = 0; i < c.chunks.size(); ++i) {
        const auto d = dedup::Sha256::hash(c.data.subspan(
            c.chunks[i].offset, c.chunks[i].size));
        match = match && d == c.digests[i];
      }
    }
    t_sha.push_back(sw.elapsed_seconds());
    if (!match) {
      throw std::runtime_error("replay: host SHA-256 differs from device digest");
    }
  }
  out.sha256_mbps = static_cast<double>(out.bytes) / 1e6 / median(t_sha);

  // What the index and store already hold when the op arrives.
  Chunked seed;
  {
    NullSink sink;
    auto r = on.run(in.seed_input, sink);
    seed = {std::move(r.chunks), std::move(r.digests), in.seed_input};
  }

  std::vector<double> t_probe;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto index = dedup::make_index(in.index);
    std::uint64_t offset = 0;
    for (std::size_t i = 0; i < seed.chunks.size(); ++i) {
      index->lookup_or_insert(seed.digests[i],
                              {offset, seed.chunks[i].size}, 0);
      offset += seed.chunks[i].size;
    }
    Stopwatch sw;
    for (const auto& c : op) {
      for (std::size_t i = 0; i < c.chunks.size(); ++i) {
        index->lookup_or_insert(c.digests[i], {offset, c.chunks[i].size}, 1);
        offset += c.chunks[i].size;
      }
    }
    t_probe.push_back(sw.elapsed_seconds());
  }
  out.probe_us = median(t_probe) * 1e6 / static_cast<double>(out.chunks);

  std::vector<double> t_put;
  for (int rep = 0; rep < kReps; ++rep) {
    dedup::ChunkStore store(/*deferred_reclaim=*/true);
    for (std::size_t i = 0; i < seed.chunks.size(); ++i) {
      store.put(seed.digests[i],
                seed.data.subspan(seed.chunks[i].offset, seed.chunks[i].size));
    }
    Stopwatch sw;
    for (const auto& c : op) {
      for (std::size_t i = 0; i < c.chunks.size(); ++i) {
        store.put(c.digests[i],
                  c.data.subspan(c.chunks[i].offset, c.chunks[i].size));
      }
    }
    t_put.push_back(sw.elapsed_seconds());
  }
  out.put_us = median(t_put) * 1e6 / static_cast<double>(out.chunks);
  return out;
}

}  // namespace perfbench
