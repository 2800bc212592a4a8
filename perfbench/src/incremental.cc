// The incremental-computation workload (paper §6, Fig 15): revisions of a
// text corpus uploaded through Inc-HDFS's content-defined splits and re-run
// as a memoized word count.
#include <memory>
#include <string>

#include "bench.h"
#include "dedup/sha256.h"
#include "inchdfs/hdfs.h"
#include "inchdfs/inc_hdfs.h"
#include "inchdfs/input_format.h"
#include "inchdfs/jobs.h"
#include "inchdfs/mapreduce.h"
#include "inchdfs/memo.h"
#include "inchdfs/textgen.h"
#include "obs/registry.h"

namespace perfbench {

using namespace shredder;
using namespace shredder::inchdfs;

PhaseResult run_incremental_compute(const Options& opts, bool traced) {
  constexpr double kChange = 0.05;
  constexpr unsigned kEditRegions = 4;
  constexpr std::size_t kReducers = 8;
  PhaseResult res;
  HostTrace trace(traced);
  obs::Registry registry;

  core::ShredderConfig sc;
  sc.chunker.window = 48;
  sc.chunker.mask_bits = 16;  // ~64 KB content-defined splits
  sc.chunker.marker = 0x78;
  sc.chunker.min_size = 16 * 1024;
  sc.chunker.max_size = 256 * 1024;
  sc.buffer_bytes = kBufferBytes;
  sc.mode = core::GpuMode::kStreamsCoalesced;
  sc.sim_threads = kThreads;
  sc.registry = traced ? &registry : nullptr;

  std::unique_ptr<core::Shredder> shredder;
  std::unique_ptr<MapReduceEngine> engine;
  std::unique_ptr<MemoServer> memo;
  for (int i = 0; i < kSetupReps; ++i) {
    memo.reset();
    engine.reset();
    shredder.reset();
    res.setup_s.push_back(timed(trace, "setup", [&] {
      shredder = std::make_unique<core::Shredder>(sc);
      engine = std::make_unique<MapReduceEngine>(kThreads);
      memo = std::make_unique<MemoServer>();
    }));
  }
  const JobSpec job = make_wordcount_job(kReducers);
  const TextInputFormat format;

  std::string previous;
  std::string current = make_text_corpus((16ull << 20) / opts.scale, opts.seed);
  std::vector<Split> last_splits;
  std::map<std::string, std::string> last_output;
  std::uint64_t revisions = 0, reduce_reused = 0;
  double chunking_v = 0;

  // One revision: upload, read back, memoized run. False on failure.
  const auto revision = [&](std::uint64_t r, bool is_timed) {
    const std::string pre = is_timed ? "" : "warmup.";
    const std::string name = "rev" + std::to_string(r);
    MiniHdfs fs(20);
    IncHdfsClient client(fs);
    UploadStats up;
    std::vector<Split> splits;
    JobResult jr;
    double read_s = 0;
    ++res.attempted;
    double seconds = 0;
    try {
      seconds = timed(trace, pre + "op.revision", [&] {
        timed(trace, pre + "inchdfs.upload", [&] {
          up = client.copy_from_local_gpu(name, as_bytes(current), format,
                                          *shredder);
        });
        read_s = timed(trace, pre + "inchdfs.read_splits",
                       [&] { splits = client.read_splits(name); });
        timed(trace, pre + "inchdfs.job",
              [&] { jr = engine->run(job, splits, memo.get()); });
      });
    } catch (const std::exception& e) {
      res.fail(name + " threw: " + e.what());
      return false;
    }
    std::uint64_t split_bytes = 0;
    for (const auto& s : splits) split_bytes += s.data.size();
    if (split_bytes != current.size() || up.bytes != current.size() ||
        jr.stats.map_tasks != splits.size() || jr.output.empty()) {
      res.fail(name + ": splits do not cover the revision");
      return false;
    }
    ++revisions;
    chunking_v += up.chunking_virtual_seconds;
    if (is_timed) {
      res.op_s.push_back(seconds);
      res.op_bytes += current.size();
      res.restore_s.push_back(read_s);
      res.restore_bytes += split_bytes;
      res.virtual_gbps.push_back(static_cast<double>(current.size()) * 8 /
                                 up.chunking_virtual_seconds / 1e9);
      res.reuse_num += jr.stats.map_reused;
      res.reuse_den += jr.stats.map_tasks;
      reduce_reused += jr.stats.reduce_reused;
      res.determinism.push_back({"splits", static_cast<double>(splits.size())});
      res.determinism.push_back(
          {"map_reused", static_cast<double>(jr.stats.map_reused)});
      res.determinism.push_back(
          {"reduce_reused", static_cast<double>(jr.stats.reduce_reused)});
      res.determinism.push_back(
          {"chunking_virtual_s", up.chunking_virtual_seconds});
    }
    last_splits = std::move(splits);
    last_output = std::move(jr.output);
    return true;
  };

  revision(0, /*is_timed=*/false);
  res.determinism.push_back(
      {"input_prefix",
       static_cast<double>(dedup::Sha256::hash(as_bytes(current)).prefix64() >> 12)});
  const OpBudget budget(opts);
  for (std::uint64_t r = 1; budget.more(r - 1); ++r) {
    previous = std::move(current);
    current = mutate_text_corpus(previous, kChange, opts.seed * 7919 + r,
                                 kEditRegions);
    if (!revision(r, /*is_timed=*/true)) break;
  }

  // The last revision's memoized output must equal a from-scratch run.
  ++res.attempted;
  if (engine->run(job, last_splits, nullptr).output != last_output) {
    res.fail("memoized word count differs from an unmemoized run");
  }

  if (traced && !res.op_s.empty()) {
    const double timed_revs = static_cast<double>(res.op_s.size());
    const double all_revs = static_cast<double>(revisions);
    ReplayInput in;
    in.inputs = {as_bytes(current)};
    in.seed_input = as_bytes(previous);
    in.shredder = sc;
    const ReplayResult rp = replay_layers(in);
    set_layer(res, "core.chunk_host_s", rp.chunk_s);
    set_layer(res, "core.fingerprint_host_s", rp.chunk_fp_s - rp.chunk_s);
    const auto stage = [&](const char* s) {
      return registry.timing("pipeline.stage_seconds", {{"stage", s}})
          .summary()
          .sum();
    };
    const double store = registry.timing("core.store_seconds").summary().sum();
    for (const char* s : {"reader", "h2d", "kernel", "fingerprint"}) {
      set_layer(res, std::string("pipeline.stage_v_s.") + s, stage(s) / all_revs);
    }
    set_layer(res, "pipeline.stage_v_s.store", store / all_revs);
    const double compute = stage("kernel") + stage("fingerprint");
    set_layer(res, "gpusim.h2d_busy_v_s", stage("h2d") / all_revs);
    set_layer(res, "gpusim.compute_busy_v_s", compute / all_revs);
    set_layer(res, "gpusim.d2h_busy_v_s", store / all_revs);
    set_layer(res, "gpusim.device_occupancy", compute / chunking_v);
    set_layer(res, "chunking.chunks", static_cast<double>(rp.chunks));
    set_layer(res, "chunking.mean_chunk_bytes",
              static_cast<double>(rp.bytes) / static_cast<double>(rp.chunks));
    set_layer(res, "dedup.sha256_host_mbps", rp.sha256_mbps);
    set_layer(res, "dedup.index_probe_host_us", rp.probe_us);
    set_layer(res, "dedup.store_put_host_us", rp.put_us);
    set_layer(res, "inchdfs.upload_host_s", median(trace.durations("inchdfs.upload")));
    set_layer(res, "inchdfs.read_splits_host_s",
              median(trace.durations("inchdfs.read_splits")));
    set_layer(res, "inchdfs.job_host_s", median(trace.durations("inchdfs.job")));
    set_layer(res, "inchdfs.map_reused",
              static_cast<double>(res.reuse_num) / timed_revs);
    set_layer(res, "inchdfs.reduce_reused",
              static_cast<double>(reduce_reused) / timed_revs);
    set_layer(res, "inchdfs.memo_entries", static_cast<double>(memo->entries()));
    trace.write_json(out_path(opts, "host_trace.json"));
    write_file(out_path(opts, "registry.json"), registry.to_json());
  }
  return res;
}

}  // namespace perfbench
