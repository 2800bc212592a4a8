// The two backup workloads (paper §7, Fig 18): a chain of highly similar
// snapshots into one dedicated-GPU server, and multi-tenant churn through a
// shared chunking service with deletes, GC and entry-log compaction.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>

#include "backup/backup_server.h"
#include "bench.h"
#include "common/rng.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "service/service.h"

namespace perfbench {
namespace {

using namespace shredder;
using namespace shredder::backup;

// Every backup the phase made (warm-up included), in call order: the
// registry's published totals must equal these sums exactly.
struct BackupLog {
  std::vector<BackupRunStats> all;
  std::vector<BackupRunStats> timed;
  std::uint64_t calls = 0;        // timed backup calls
  std::uint64_t all_calls = 0;    // including the warm-up

  void add(const std::vector<BackupRunStats>& stats, bool is_timed) {
    ++all_calls;
    all.insert(all.end(), stats.begin(), stats.end());
    if (is_timed) {
      ++calls;
      timed.insert(timed.end(), stats.begin(), stats.end());
    }
  }
};

// Checks that the registry's backup.stage_seconds timings and index.*
// counters equal the sums of the BackupRunStats the calls returned. Sums
// run in publication order, so floating-point totals match bit for bit.
void check_registry(obs::Registry& reg, const BackupLog& log,
                    const dedup::IndexStats& index_stats, PhaseResult& res) {
  const std::pair<const char*, double BackupRunStats::*> stages[] = {
      {"generation", &BackupRunStats::generation_seconds},
      {"chunking", &BackupRunStats::chunking_seconds},
      {"hashing", &BackupRunStats::hashing_seconds},
      {"index", &BackupRunStats::index_seconds},
      {"link", &BackupRunStats::link_seconds},
  };
  for (const auto& [stage, field] : stages) {
    double total = 0;
    for (const auto& s : log.all) total += s.*field;
    const Summary got =
        reg.timing("backup.stage_seconds", {{"stage", stage}}).summary();
    if (got.count() != log.all.size() || got.sum() != total) {
      res.fail(std::string("registry backup.stage_seconds{") + stage +
               "} disagrees with BackupRunStats");
    }
  }
  std::uint64_t chunks = 0, flash = 0, cache = 0;
  for (const auto& s : log.all) {
    chunks += s.chunks;
    flash += s.index_flash_reads;
    cache += s.index_cache_hits;
  }
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"index.probes_total", chunks},
      {"index.flash_reads_total", flash},
      {"index.cache_hits_total", cache},
      {"index.inserts_total", index_stats.inserts},
      {"index.signature_hits_total", index_stats.signature_hits},
      {"index.false_signature_hits_total", index_stats.false_signature_hits},
  };
  for (const auto& [name, want] : counters) {
    if (reg.counter(name).value() != want) {
      res.fail(std::string("registry ") + name +
               " disagrees with BackupRunStats/IndexStats");
    }
  }
  res.notes.push_back(
      "consistency: registry backup.stage_seconds and index.* equal the "
      "BackupRunStats/IndexStats sums over " +
      std::to_string(log.all.size()) + " snapshots");
}

double stage_sum(obs::Registry& reg, const char* name, const char* stage) {
  return reg.timing(name, {{"stage", stage}}).summary().sum();
}

// Per-layer metrics shared by both backup workloads (traced phase).
void backup_layers(PhaseResult& res, obs::Registry& reg, const BackupLog& log,
                   const ReplayResult& rp, const dedup::ChunkStore& store,
                   double live_bytes) {
  const double calls = static_cast<double>(log.calls);
  const double all_calls = static_cast<double>(log.all_calls);
  set_layer(res, "core.chunk_host_s", rp.chunk_s);
  set_layer(res, "core.fingerprint_host_s", rp.chunk_fp_s - rp.chunk_s);
  for (const char* stage : {"reader", "h2d", "kernel", "fingerprint"}) {
    set_layer(res, std::string("pipeline.stage_v_s.") + stage,
              stage_sum(reg, "pipeline.stage_seconds", stage) / all_calls);
  }
  set_layer(res, "pipeline.stage_v_s.store",
            reg.timing("core.store_seconds").summary().sum() / all_calls);
  set_layer(res, "chunking.chunks", static_cast<double>(rp.chunks));
  set_layer(res, "chunking.mean_chunk_bytes",
            static_cast<double>(rp.bytes) / static_cast<double>(rp.chunks));
  set_layer(res, "dedup.sha256_host_mbps", rp.sha256_mbps);
  set_layer(res, "dedup.index_probe_host_us", rp.probe_us);
  set_layer(res, "dedup.store_put_host_us", rp.put_us);
  for (const char* c : {"probes", "inserts", "signature_hits",
                        "false_signature_hits", "flash_reads", "cache_hits"}) {
    set_layer(res, std::string("dedup.index.") + c,
              static_cast<double>(
                  reg.counter(std::string("index.") + c + "_total").value()) /
                  all_calls);
  }
  set_layer(res, "dedup.store.chunks", static_cast<double>(store.unique_chunks()));
  set_layer(res, "dedup.store.bytes", static_cast<double>(store.unique_bytes()));
  set_layer(res, "dedup.store.refs", static_cast<double>(store.total_refs()));

  BackupRunStats t;  // per-call totals over the timed calls
  std::vector<double> goodput;
  for (const auto& s : log.timed) {
    t.generation_seconds += s.generation_seconds;
    t.chunking_seconds += s.chunking_seconds;
    t.hashing_seconds += s.hashing_seconds;
    t.index_seconds += s.index_seconds;
    t.link_seconds += s.link_seconds;
    t.bytes += s.bytes;
    t.chunks += s.chunks;
    t.duplicate_chunks += s.duplicate_chunks;
    t.wire_bytes += s.wire_bytes;
    t.transport.frames_sent += s.transport.frames_sent;
    t.transport.retransmits += s.transport.retransmits;
    t.transport.repair_frames += s.transport.repair_frames;
    t.transport.window_stall_seconds += s.transport.window_stall_seconds;
    goodput.push_back(s.transport.goodput_bps / 1e9);
  }
  set_layer(res, "dedup.index_v_s", t.index_seconds / calls);
  set_layer(res, "backup.stage_v_s.generation", t.generation_seconds / calls);
  set_layer(res, "backup.stage_v_s.chunking", t.chunking_seconds / calls);
  set_layer(res, "backup.stage_v_s.hashing", t.hashing_seconds / calls);
  set_layer(res, "backup.stage_v_s.index", t.index_seconds / calls);
  set_layer(res, "backup.stage_v_s.link", t.link_seconds / calls);
  set_layer(res, "backup.duplicate_chunk_fraction",
            static_cast<double>(t.duplicate_chunks) / t.chunks);
  set_layer(res, "backup.wire_bytes_per_byte",
            static_cast<double>(t.wire_bytes) / t.bytes);
  set_layer(res, "backup.stored_bytes_per_user_byte",
            static_cast<double>(store.unique_bytes()) / live_bytes);
  set_layer(res, "backup.recreate_host_s", median(res.restore_s));
  set_layer(res, "transport.frames_sent", t.transport.frames_sent / calls);
  set_layer(res, "transport.retransmits", t.transport.retransmits / calls);
  set_layer(res, "transport.repair_frames", t.transport.repair_frames / calls);
  set_layer(res, "transport.window_stall_v_s",
            t.transport.window_stall_seconds / calls);
  set_layer(res, "transport.goodput_v_gbps", median(goodput));

  // Host-time split of one backup call. Chunking and fingerprinting come
  // from Shredder::run off/on; the index and store terms scale the replayed
  // per-probe / per-put costs by the call's probes and unique chunks; the
  // rest (transport, agent apply, verification, manifest) is "other".
  const double op = median(res.op_s);
  const double unique_per_call =
      static_cast<double>(t.chunks - t.duplicate_chunks) / calls;
  const double probes_per_call = static_cast<double>(t.chunks) / calls;
  const std::pair<const char*, double> layers[] = {
      {"chunk (Shredder::run, fingerprint off)", rp.chunk_s},
      {"fingerprint (device-sim SHA-256)", rp.chunk_fp_s - rp.chunk_s},
      {"index (lookup_or_insert)", rp.probe_us * 1e-6 * probes_per_call},
      {"store (ChunkStore::put)", rp.put_us * 1e-6 * unique_per_call},
  };
  double other = op;
  for (const auto& [name, s] : layers) other -= s;
  set_layer(res, "backup.other_host_s", other);

  std::string split = "host-time split of one backup call (" +
                      json_number(op) + " s):";
  const char* largest = "other (transport, agent, verify, manifest)";
  double largest_s = other;
  for (const auto& [name, s] : layers) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), " %s %.1f%%;", name, 100.0 * s / op);
    split += buf;
    if (s > largest_s) {
      largest_s = s;
      largest = name;
    }
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf), " other %.1f%%", 100.0 * other / op);
  res.notes.push_back(split + buf);
  res.notes.push_back(std::string("largest host-time layer: ") + largest);
}

void record_backup(PhaseResult& res, const std::vector<BackupRunStats>& stats,
                   std::uint64_t bytes, double seconds) {
  res.op_s.push_back(seconds);
  res.op_bytes += bytes;
  for (const auto& s : stats) {
    res.virtual_gbps.push_back(s.backup_bandwidth_gbps);
    res.reuse_num += s.duplicate_chunks;
    res.reuse_den += s.chunks;
    res.determinism.push_back({"chunks", static_cast<double>(s.chunks)});
    res.determinism.push_back(
        {"duplicate_chunks", static_cast<double>(s.duplicate_chunks)});
    res.determinism.push_back(
        {"unique_bytes", static_cast<double>(s.unique_bytes)});
    res.determinism.push_back(
        {"retransmits", static_cast<double>(s.transport.retransmits)});
    res.determinism.push_back({"virtual_backup_gbps", s.backup_bandwidth_gbps});
  }
}

void write_traces(const Options& opts, const HostTrace& trace,
                  const obs::Registry& reg, const obs::Tracer& tracer) {
  trace.write_json(out_path(opts, "host_trace.json"));
  tracer.write_json(out_path(opts, "virtual_trace.json"));
  write_file(out_path(opts, "registry.json"), reg.to_json());
}

// Snapshot deletion shared by both backup workloads: deletes server- and
// agent-side, sweeps, compacts the index, then checks the ids are gone.
struct Reclaimer {
  std::uint64_t bytes_zeroed = 0;
  std::uint64_t bytes_freed = 0;
  std::uint64_t kept_pinned = 0;
  std::uint64_t manifest_dropped = 0;
  std::vector<double> cycle_s;
  std::vector<double> log_shrink;

  bool run(BackupServer& server, BackupAgent& agent,
           const std::vector<std::string>& ids, HostTrace& trace,
           bool is_timed, PhaseResult& res) {
    const std::string pre = is_timed ? "" : "warmup.";
    ++res.attempted;
    std::uint64_t zeroed = 0;
    retention::RetentionManager::GcStats gc;
    retention::RetentionManager::CompactStats cs;
    double seconds = 0;
    try {
      seconds = timed(trace, pre + "op.reclaim", [&] {
        timed(trace, pre + "retention.delete", [&] {
          for (const auto& id : ids) {
            zeroed += server.delete_image(id).bytes_zeroed;
            agent.delete_image(id);
          }
        });
        timed(trace, pre + "retention.gc", [&] { gc = server.gc(); });
        timed(trace, pre + "retention.compact",
              [&] { cs = server.compact_index(); });
      });
    } catch (const std::exception& e) {
      res.fail(std::string("delete/gc/compact threw: ") + e.what());
      return false;
    }
    for (const auto& id : ids) {
      const auto state = server.retention().manifests().state("", id);
      bool gone = !state || *state == retention::ImageState::kDeleted;
      try {
        agent.recreate(id);
        gone = false;
      } catch (const ProtocolError&) {
      }
      if (!gone) {
        res.fail("deleted snapshot " + id + " is still present");
        return false;
      }
    }
    if (!is_timed) return true;
    cycle_s.push_back(seconds);
    bytes_zeroed += zeroed;
    bytes_freed += gc.bytes_freed;
    kept_pinned += gc.kept_pinned;
    manifest_dropped += cs.manifest.dropped_records;
    if (cs.index.entries_before > 0) {
      log_shrink.push_back(1.0 - static_cast<double>(cs.index.entries_after) /
                                     static_cast<double>(cs.index.entries_before));
    }
    res.determinism.push_back({"bytes_freed", static_cast<double>(gc.bytes_freed)});
    return true;
  }

  void report(PhaseResult& res, const HostTrace& trace, bool traced) const {
    res.figures["reclaim_s_p50"] = median(cycle_s);
    res.figures["reclaimed_fraction"] =
        bytes_zeroed > 0 ? static_cast<double>(bytes_freed) / bytes_zeroed : 0.0;
    if (!traced || cycle_s.empty()) return;
    const double cycles = static_cast<double>(cycle_s.size());
    set_layer(res, "retention.delete_host_s",
              median(trace.durations("retention.delete")));
    set_layer(res, "retention.gc_host_s", median(trace.durations("retention.gc")));
    set_layer(res, "retention.compact_host_s",
              median(trace.durations("retention.compact")));
    set_layer(res, "retention.reclaim_s_p50", res.figures["reclaim_s_p50"]);
    set_layer(res, "retention.bytes_freed", bytes_freed / cycles);
    set_layer(res, "retention.kept_pinned", kept_pinned / cycles);
    set_layer(res, "retention.entry_log_shrink", median(log_shrink));
    set_layer(res, "retention.manifest_records_dropped", manifest_dropped / cycles);
    set_layer(res, "retention.reclaimed_fraction", res.figures["reclaimed_fraction"]);
  }
};

// Times one read-back and checks it is byte-identical to `image`.
void restore(BackupAgent& agent, const std::string& id, const ByteVec& image,
             HostTrace& trace, bool is_timed, PhaseResult& res) {
  ++res.attempted;
  ByteVec back;
  double seconds = 0;
  try {
    seconds = timed(trace, is_timed ? "op.restore" : "warmup.restore",
                    [&] { back = agent.recreate(id); });
  } catch (const std::exception& e) {
    res.fail("restore " + id + " threw: " + e.what());
    return;
  }
  if (back != image) {
    res.fail("restore " + id + " is not byte-identical");
    return;
  }
  if (!is_timed) return;
  res.restore_s.push_back(seconds);
  res.restore_bytes += back.size();
}

void record_stored(PhaseResult& res, const dedup::ChunkStore& store,
                   double live_bytes) {
  res.figures["stored_bytes_per_user_byte"] =
      static_cast<double>(store.unique_bytes()) / live_bytes;
  res.determinism.push_back(
      {"stored_bytes", static_cast<double>(store.unique_bytes())});
}

double input_prefix(const ByteVec& image) {
  // 52 bits of the digest: exactly representable as a double.
  return static_cast<double>(dedup::Sha256::hash(as_bytes(image)).prefix64() >> 12);
}

}  // namespace

PhaseResult run_backup_similar(const Options& opts, bool traced) {
  constexpr double kChange = 0.10;
  constexpr std::size_t kLive = 8;  // snapshots kept; older ones are deleted
  PhaseResult res;
  HostTrace trace(traced);
  obs::Registry registry;
  obs::Tracer tracer;

  ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = (32ull << 20) / opts.scale;
  repo_cfg.segment_bytes = (1ull << 20) / opts.scale;
  repo_cfg.seed = opts.seed;
  const ImageRepository repo(repo_cfg);

  BackupServerConfig cfg;
  cfg.backend = ChunkerBackend::kShredderGpu;
  cfg.fingerprint_on_device = true;
  cfg.shredder.buffer_bytes = kBufferBytes;
  cfg.shredder.sim_threads = kThreads;
  cfg.index.kind = dedup::IndexKind::kPaperBaseline;
  cfg.registry = traced ? &registry : nullptr;
  cfg.tracer = traced ? &tracer : nullptr;

  std::unique_ptr<BackupServer> server;
  std::unique_ptr<BackupAgent> agent;
  for (int i = 0; i < kSetupReps; ++i) {
    agent.reset();
    server.reset();
    res.setup_s.push_back(timed(trace, "setup", [&] {
      server = std::make_unique<BackupServer>(cfg);
      agent = std::make_unique<BackupAgent>();
    }));
  }

  BackupLog log;
  Reclaimer reclaimer;
  std::deque<std::string> live;
  // One backup and the restore of it; false when anything failed.
  const auto backup_one = [&](std::uint64_t id, const ByteVec& image,
                              bool is_timed) {
    const std::string name = "s" + std::to_string(id);
    ++res.attempted;
    BackupRunStats stats;
    double seconds = 0;
    try {
      seconds = timed(trace, is_timed ? "op.backup" : "warmup.backup", [&] {
        stats = server->backup_image(name, as_bytes(image), repo, *agent);
      });
    } catch (const std::exception& e) {
      res.fail("backup " + name + " threw: " + e.what());
      return false;
    }
    if (!stats.verified) {
      res.fail("backup " + name + " did not verify");
      return false;
    }
    live.push_back(name);
    log.add({stats}, is_timed);
    if (is_timed) record_backup(res, {stats}, image.size(), seconds);
    restore(*agent, name, image, trace, is_timed, res);
    if (live.size() <= kLive) return true;
    const std::string oldest = live.front();
    live.pop_front();
    return reclaimer.run(*server, *agent, {oldest}, trace, is_timed, res);
  };

  // Warm-up: the master image itself, so every timed snapshot dedups ~90%.
  backup_one(0, repo.snapshot(0.0, 0), /*is_timed=*/false);
  // ImageRepository seeds a snapshot's segment draws with seed ^ (id *
  // golden ratio), so consecutive ids give shifted, correlated change
  // patterns; ids drawn from a SplitMix64 stream keep snapshots independent.
  SplitMix64 snapshot_ids(opts.seed);
  std::uint64_t newest = 0;  // repository id of the newest snapshot
  const OpBudget budget(opts);
  for (std::uint64_t id = 1; budget.more(id - 1); ++id) {
    newest = snapshot_ids.next();
    const ByteVec image = repo.snapshot(kChange, newest);
    if (id == 1) res.determinism.push_back({"input_prefix", input_prefix(image)});
    if (!backup_one(id, image, /*is_timed=*/true)) break;
  }

  const auto& store = *server->retention().store();
  const double live_bytes = static_cast<double>(live.size()) *
                            static_cast<double>(repo_cfg.image_bytes);
  record_stored(res, store, live_bytes);
  reclaimer.report(res, trace, traced);

  if (traced && log.calls > 0) {
    check_registry(registry, log, server->index().stats(), res);
    // Replay the newest snapshot against the master image already held.
    const ByteVec image = repo.snapshot(kChange, newest);
    ReplayInput in;
    in.inputs = {as_bytes(image)};
    in.seed_input = repo.master();
    in.shredder = server->config().shredder;
    in.index = cfg.index;
    in.index.costs.probe_s = cfg.costs.index_probe_s;
    in.index.costs.insert_s = cfg.costs.index_insert_s;
    const ReplayResult rp = replay_layers(in);
    backup_layers(res, registry, log, rp, store, live_bytes);
    const double compute = stage_sum(registry, "pipeline.stage_seconds", "kernel") +
                           stage_sum(registry, "pipeline.stage_seconds", "fingerprint");
    double chunking_v = 0;
    for (const auto& s : log.all) chunking_v += s.chunking_seconds;
    const double all_calls = static_cast<double>(log.all_calls);
    set_layer(res, "gpusim.h2d_busy_v_s",
              stage_sum(registry, "pipeline.stage_seconds", "h2d") / all_calls);
    set_layer(res, "gpusim.compute_busy_v_s", compute / all_calls);
    set_layer(res, "gpusim.d2h_busy_v_s",
              registry.timing("core.store_seconds").summary().sum() / all_calls);
    set_layer(res, "gpusim.device_occupancy", compute / chunking_v);
    write_traces(opts, trace, registry, tracer);
  }
  return res;
}

PhaseResult run_backup_churn(const Options& opts, bool traced) {
  constexpr double kChange = 0.75;
  constexpr double kDrop = 0.01;
  constexpr std::size_t kTenants = 4;
  PhaseResult res;
  HostTrace trace(traced);
  obs::Registry registry;
  obs::Tracer tracer;

  ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = (8ull << 20) / opts.scale;
  repo_cfg.segment_bytes = (128ull << 10) / opts.scale;
  repo_cfg.seed = opts.seed;
  const ImageRepository repo(repo_cfg);

  BackupServerConfig cfg;
  cfg.backend = ChunkerBackend::kSharedService;
  cfg.fingerprint_on_device = true;
  cfg.index.kind = dedup::IndexKind::kSparse;
  cfg.registry = traced ? &registry : nullptr;
  cfg.tracer = traced ? &tracer : nullptr;
  service::ServiceConfig scfg;
  scfg.chunker = cfg.chunker;
  scfg.buffer_bytes = kBufferBytes;
  scfg.fingerprint_on_device = true;
  scfg.sim_threads = kThreads;
  scfg.registry = cfg.registry;
  scfg.tracer = cfg.tracer;

  std::shared_ptr<service::ChunkingService> svc;
  std::unique_ptr<BackupServer> server;
  std::unique_ptr<BackupAgent> agent;
  for (int i = 0; i < kSetupReps; ++i) {
    agent.reset();
    server.reset();
    cfg.service.reset();
    svc.reset();
    res.setup_s.push_back(timed(trace, "setup", [&] {
      svc = std::make_shared<service::ChunkingService>(scfg);
      cfg.service = svc;
      server = std::make_unique<BackupServer>(cfg);
      agent = std::make_unique<BackupAgent>();
    }));
  }

  BackupLog log;
  Reclaimer reclaimer;
  std::uint64_t next_id = 0;
  SplitMix64 snapshot_ids(opts.seed);
  std::vector<std::string> live;  // the previous cycle's snapshots
  std::vector<ByteVec> images;

  // One cycle: back up kTenants snapshots concurrently, delete the previous
  // cycle's, GC, compact, then restore a survivor.
  const auto cycle = [&](bool is_timed) {
    images.clear();
    std::vector<std::string> ids;
    for (std::size_t t = 0; t < kTenants; ++t) {
      ++next_id;
      ids.push_back("s" + std::to_string(next_id));
      images.push_back(repo.snapshot(kChange, snapshot_ids.next()));
      // Each snapshot's link drops its own seeded 1% of frames (one shared
      // fault seed would replay the same draws, and drops, on every link).
      service::TenantTransport link;
      link.drop = kDrop;
      link.fault_seed = opts.seed * 1000003 + next_id;
      svc->set_tenant_transport(ids.back(), link);
    }
    std::vector<BackupServer::SnapshotJob> jobs;
    for (std::size_t t = 0; t < kTenants; ++t) {
      jobs.push_back({ids[t], as_bytes(images[t])});
    }
    ++res.attempted;
    std::vector<BackupRunStats> stats;
    double seconds = 0;
    try {
      seconds = timed(trace, is_timed ? "op.backup" : "warmup.backup", [&] {
        stats = server->backup_images(jobs, repo, *agent);
      });
    } catch (const std::exception& e) {
      res.fail(std::string("backup_images threw: ") + e.what());
      return false;
    }
    for (std::size_t t = 0; t < stats.size(); ++t) {
      if (!stats[t].verified) {
        res.fail("backup " + ids[t] + " did not verify");
        return false;
      }
    }
    log.add(stats, is_timed);
    if (is_timed) {
      record_backup(res, stats, kTenants * repo_cfg.image_bytes, seconds);
    }
    if (!reclaimer.run(*server, *agent, live, trace, is_timed, res)) return false;
    live = ids;
    // Survivors must recreate bit-identically after GC and compaction.
    const std::size_t pick = next_id % kTenants;
    restore(*agent, ids[pick], images[pick], trace, is_timed, res);
    return true;
  };

  cycle(/*is_timed=*/false);
  const OpBudget budget(opts);
  for (std::uint64_t done = 0; budget.more(done); ++done) {
    if (!cycle(/*is_timed=*/true)) break;
    if (done == 0) res.determinism.push_back({"input_prefix", input_prefix(images[0])});
  }

  const auto& store = *server->retention().store();
  const double live_bytes = static_cast<double>(live.size()) *
                            static_cast<double>(repo_cfg.image_bytes);
  record_stored(res, store, live_bytes);
  reclaimer.report(res, trace, traced);

  if (traced && log.calls > 0) {
    check_registry(registry, log, server->index().stats(), res);
    ReplayInput in;
    for (const auto& image : images) in.inputs.push_back(as_bytes(image));
    in.seed_input = repo.master();
    in.shredder.chunker = cfg.chunker;
    in.shredder.buffer_bytes = kBufferBytes;
    in.shredder.sim_threads = kThreads;
    in.index = cfg.index;
    const ReplayResult rp = replay_layers(in);
    backup_layers(res, registry, log, rp, store, live_bytes);
  }
  // The service report needs every session finished; the server is done.
  const service::ServiceReport report = svc->shutdown();
  if (traced && log.calls > 0) {
    const double calls = static_cast<double>(log.all_calls);
    std::size_t max_depth = 0;
    for (const auto& t : report.tenants) {
      max_depth = std::max(max_depth, t.max_queue_depth);
    }
    set_layer(res, "gpusim.h2d_busy_v_s", report.h2d_busy_seconds / calls);
    set_layer(res, "gpusim.compute_busy_v_s", report.compute_busy_seconds / calls);
    set_layer(res, "gpusim.d2h_busy_v_s", report.d2h_busy_seconds / calls);
    set_layer(res, "gpusim.device_occupancy", report.device_occupancy);
    set_layer(res, "service.device_occupancy", report.device_occupancy);
    set_layer(res, "service.h2d_busy_fraction",
              report.virtual_seconds > 0
                  ? report.h2d_busy_seconds / report.virtual_seconds
                  : 0.0);
    set_layer(res, "service.max_queue_depth", static_cast<double>(max_depth));
    write_traces(opts, trace, registry, tracer);
  }
  return res;
}

}  // namespace perfbench
