#include "workload.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <thread>

#include "apps/scripted_kernel.h"
#include "checkpoint/checkpointer.h"
#include "checkpoint/inspect.h"
#include "checkpoint/restore.h"
#include "common/page.h"
#include "ledger.h"
#include "net/remote_backend.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "sim/sampler.h"
#include "sim/virtual_clock.h"
#include "storage/segment_backend.h"

namespace ledger {

namespace {

using memtrack::EngineKind;

// Footprints are kept small (a few MB) so that one run holds many whole
// passes: on a shared host the median over ~20 passes is what keeps the
// run-to-run spread inside the benchmark's bounds.  Each pass still
// takes >= 100 checkpoints, so a pass's p90 stall has >= 10 samples
// beyond it.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // Many small durable commits and one long chain.
      {"sparse-commits", "sage-100", 0.125, EngineKind::kUffd,
       StoreKind::kSegment, 1, 0, 100, 0},
      // Every checkpoint is most of the footprint; short chains, restored
      // at the same fixed points as remote-restart.  Three encode workers
      // plus the app thread, which writes the encoded shards as they
      // finish, fill the 4 cores without oversubscribing them.
      {"dense-encode", "bt", 1.0 / 16, EngineKind::kMProtect, StoreKind::kFile,
       3, 8, 100, 3},
      // The chain goes over loopback to an in-process daemon, then is
      // read back at several restore points.
      {"remote-restart", "jacobi3d", 1.0 / 16, EngineKind::kMProtect,
       StoreKind::kRemoteSegment, 2, 0, 100, 3},
  };
  return all;
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::uint64_t counter(const char* name) {
  return obs::registry().counter(name).value();
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Registry counters the pass reads as before/after differences.
struct RegistryDelta {
  static constexpr const char* kNames[] = {
      "storage.fsync_calls", "restore.pages_decoded", "restore.pages_skipped",
      "net.bytes_in",        "net.bytes_out",         "net.protocol_errors"};
  std::map<std::string, std::uint64_t> start;
  RegistryDelta() {
    for (const char* n : kNames) start[n] = counter(n);
  }
  std::uint64_t operator()(const char* n) const {
    return counter(n) - start.at(n);
  }
};

/// Everything one pass owns, torn down in a safe order: the sampler
/// and checkpointer before the app, the app before its tracker, and the
/// client before the server it talks to.
struct Rig {
  std::unique_ptr<storage::StorageBackend> store;
  std::unique_ptr<TimedBackend> store_timed;
  std::unique_ptr<net::Server> server;
  std::thread server_thread;
  Status server_status;
  std::unique_ptr<storage::StorageBackend> remote;
  std::unique_ptr<TimedBackend> client_timed;
  storage::StorageBackend* backend = nullptr;  ///< what checkpoint/restore use

  std::unique_ptr<memtrack::DirtyTracker> engine;
  std::unique_ptr<TimedTracker> timed_tracker;
  memtrack::DirtyTracker* tracker = nullptr;
  sim::VirtualClock clock;
  std::unique_ptr<apps::AppKernel> app;
  std::unique_ptr<checkpoint::Checkpointer> ckpt;
  std::unique_ptr<sim::TimesliceSampler> sampler;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    sampler.reset();
    ckpt.reset();
    app.reset();
    client_timed.reset();
    remote.reset();
    (void)stop_server();
  }

  /// Stop the in-process daemon (if any) and return how serve() ended.
  Status stop_server() {
    if (server) server->stop();
    if (server_thread.joinable()) server_thread.join();
    return server_status;
  }

  Status open_store(const Workload& w, const std::string& dir, SpanLog* log) {
    if (w.store == StoreKind::kFile) {
      ICKPT_ASSIGN_OR_RETURN(made, storage::make_file_backend(dir));
      store = std::move(made);
    } else {
      ICKPT_ASSIGN_OR_RETURN(made, storage::make_segment_backend(dir));
      store = std::move(made);
    }
    // Traced passes see storage from both ends: "storage" spans the
    // durable store itself, "net.client" what the checkpointer and
    // restore call.  Between them sits the network on remote-restart and
    // only the in-process call path elsewhere.
    storage::StorageBackend* base = store.get();
    if (log != nullptr) {
      store_timed = std::make_unique<TimedBackend>(*store, *log, "storage");
      base = store_timed.get();
    }
    backend = base;
    if (w.store == StoreKind::kRemoteSegment) {
      ICKPT_ASSIGN_OR_RETURN(srv, net::Server::create(*base));
      server = std::move(srv);
      server_thread = std::thread([this] { server_status = server->serve(); });
      storage::RemoteBackendOptions ropts;
      ropts.port = server->port();
      ICKPT_ASSIGN_OR_RETURN(client, storage::make_remote_backend(ropts));
      remote = std::move(client);
      backend = remote.get();
    }
    if (log != nullptr) {
      client_timed = std::make_unique<TimedBackend>(*backend, *log, "net.client");
      backend = client_timed.get();
    }
    return Status::ok();
  }
};

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const Workload& w : workloads()) out.push_back(w.name);
  return out;
}

void remove_store(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const std::string parent =
      std::filesystem::path(dir).parent_path().string();
  const int fd = ::open(parent.empty() ? "." : parent.c_str(),
                        O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

PassResult run_pass(const Workload& w, std::uint64_t seed,
                    const std::string& dir, SpanLog* log) {
  PassResult p;
  auto fail = [&p](std::string what) {
    ++p.failed;
    p.errors.push_back(std::move(what));
  };
  remove_store(dir);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    ++p.attempted;
    fail("cannot create store directory " + dir + ": " + ec.message());
    return p;
  }
  const RegistryDelta delta;
  auto span = [log](std::optional<SpanLog::Scope>& s, const char* name) {
    if (log != nullptr) s.emplace(*log, log->name(name));
  };

  // Restore points fixed in advance by sequence number, plus the final
  // state (added once its sequence is known).
  std::map<std::uint64_t, MemoryDigest> expected;
  for (int i = 1; i <= w.restore_points; ++i) {
    expected[static_cast<std::uint64_t>(w.run_vs * i / (w.restore_points + 1))];
  }

  // ---------------------------------------------------------------- set-up
  std::uint64_t boundaries = 0;
  std::uint64_t digest_ns = 0;
  double ckpt_cpu_s = 0;
  Rig rig;
  auto checkpoint = [&](const memtrack::DirtySnapshot& snap, double vt,
                        bool final_state) {
    ++p.attempted;
    const double c0 = log != nullptr ? cpu_seconds() : 0;
    const std::uint64_t t0 = now_ns();
    Result<checkpoint::CheckpointMeta> meta = [&] {
      std::optional<SpanLog::Scope> s;
      span(s, "checkpoint.incremental");
      return rig.ckpt->checkpoint_incremental(snap, vt);
    }();
    p.stall_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    if (log != nullptr) ckpt_cpu_s += cpu_seconds() - c0;
    if (!meta.is_ok()) {
      fail("checkpoint at vt " + std::to_string(vt) + ": " +
           meta.status().to_string());
      return;
    }
    ++p.counts.checkpoints;
    p.counts.dirty_pages += snap.dirty_pages();
    p.counts.payload_pages += meta->payload_pages;
    p.counts.zero_pages += meta->zero_pages;
    p.counts.rle_pages += meta->rle_pages;
    p.counts.bytes_written += meta->file_bytes;
    p.payload_bytes += meta->payload_pages * page_size();
    if (final_state) expected[meta->sequence];
    auto it = expected.find(meta->sequence);
    if (it != expected.end()) {
      const std::uint64_t d0 = now_ns();
      std::optional<SpanLog::Scope> s;
      span(s, "bench.digest");
      it->second = digest(rig.app->space());
      digest_ns += now_ns() - d0;
    }
  };

  const std::uint64_t setup0 = now_ns();
  Status st = [&]() -> Status {
    ICKPT_RETURN_IF_ERROR(rig.open_store(w, dir, log));
    // An unavailable engine fails the workload; there is no fallback.
    ICKPT_ASSIGN_OR_RETURN(engine, memtrack::make_tracker(w.engine));
    rig.engine = std::move(engine);
    rig.tracker = rig.engine.get();
    if (log != nullptr) {
      rig.timed_tracker = std::make_unique<TimedTracker>(*rig.engine, *log);
      rig.tracker = rig.timed_tracker.get();
    }
    apps::AppConfig cfg;
    cfg.footprint_scale = w.scale;
    cfg.seed = seed;
    ICKPT_ASSIGN_OR_RETURN(app,
                           apps::make_app(w.app, cfg, *rig.tracker, rig.clock));
    rig.app = std::move(app);
    ICKPT_RETURN_IF_ERROR(rig.app->init());
    checkpoint::CheckpointerOptions copts;
    copts.full_every = w.full_every;
    copts.encode_threads = w.threads;
    ICKPT_ASSIGN_OR_RETURN(
        ckpt, checkpoint::Checkpointer::create(rig.app->space(), rig.backend,
                                               copts));
    rig.ckpt = std::move(ckpt);
    sim::SamplerOptions sopts;
    sopts.timeslice = 1.0;
    sopts.on_sample = [&](const trace::Sample& s,
                          const memtrack::DirtySnapshot& snap) {
      checkpoint(snap, s.t_end, false);
    };
    rig.sampler =
        std::make_unique<sim::TimesliceSampler>(*rig.tracker, rig.clock, sopts);
    ICKPT_RETURN_IF_ERROR(rig.sampler->start());
    // Counts boundaries independently of the sampler, which drops a
    // slice silently when collect() fails.
    rig.clock.subscribe_periodic(1.0, [&boundaries](double) { ++boundaries; });
    return Status::ok();
  }();
  p.setup_s = seconds(now_ns() - setup0);
  if (!st.is_ok()) {
    ++p.attempted;
    fail("set-up: " + st.to_string());
    return p;
  }
  p.footprint_bytes = rig.app->footprint_bytes();

  // ------------------------------------------------------------- tracked run
  const std::uint64_t faults0 = rig.tracker->counters().faults_handled;
  const double cpu0 = cpu_seconds();
  const std::uint64_t run0 = now_ns();
  {
    std::optional<SpanLog::Scope> run_span;
    span(run_span, "run");
    const double until = rig.clock.now() + w.run_vs;
    while (rig.clock.now() < until) {
      std::optional<SpanLog::Scope> s;
      span(s, "apps.iterate");
      Status it = rig.app->iterate();
      if (!it.is_ok()) {
        ++p.attempted;
        fail("app iterate: " + it.to_string());
        break;
      }
    }
    // The partial slice since the last boundary: after this checkpoint
    // the chain equals live memory.
    auto snap = rig.tracker->collect(/*rearm=*/false);
    if (snap.is_ok()) {
      checkpoint(*snap, rig.clock.now(), true);
    } else {
      ++p.attempted;
      fail("final collect: " + snap.status().to_string());
    }
    rig.sampler->stop();
    rig.sampler.reset();  // drops its reference to `checkpoint`
    Status flushed = rig.ckpt->flush();
    if (!flushed.is_ok()) fail("flush: " + flushed.to_string());
  }
  p.run_s = seconds(now_ns() - run0 - digest_ns);
  p.cpu_s = cpu_seconds() - cpu0;
  const std::uint64_t faults =
      rig.tracker->counters().faults_handled - faults0;
  if (p.counts.checkpoints != boundaries + 1 && p.failed == 0) {
    ++p.attempted;
    fail("sampler delivered " + std::to_string(p.counts.checkpoints - 1) +
         " checkpoints for " + std::to_string(boundaries) + " boundaries");
  }

  // ----------------------------------------------------------------- restore
  std::uint64_t restored_pages = 0;
  {
    std::optional<SpanLog::Scope> root;
    span(root, "restore");
    if (log != nullptr && root) log->set_ambient_parent(root->id());
    for (const auto& [seq, want] : expected) {
      ++p.attempted;
      checkpoint::RestoreOptions ropts;
      ropts.upto = seq;
      ropts.decode_threads = w.threads;
      const std::uint64_t r0 = now_ns();
      auto state = [&] {
        std::optional<SpanLog::Scope> s;
        span(s, "restore.chain");
        return checkpoint::restore_chain(*rig.backend, 0, ropts);
      }();
      p.restore_s += seconds(now_ns() - r0);
      ++p.attempted;  // the verification of this restore
      if (!state.is_ok()) {
        fail("restore upto " + std::to_string(seq) + ": " +
             state.status().to_string());
        fail("verify upto " + std::to_string(seq) + ": nothing restored");
        continue;
      }
      if (state->sequence != seq) {
        fail("restore upto " + std::to_string(seq) + " gave sequence " +
             std::to_string(state->sequence));
      }
      std::optional<SpanLog::Scope> s;
      span(s, "restore.verify");
      for (const auto& [id, b] : state->blocks) {
        restored_pages += b.data.size() / page_size();
      }
      const auto problems = verify(want, *state);
      if (!problems.empty()) {
        fail("verify upto " + std::to_string(seq) + ": " + problems.front() +
             " (" + std::to_string(problems.size()) + " problems)");
      }
    }
    if (log != nullptr) log->set_ambient_parent(0);
  }
  p.counts.pages_decoded = delta("restore.pages_decoded");

  // ------------------------------------------------------------ store health
  ++p.attempted;
  auto report = checkpoint::inspect_store(*rig.store);
  if (!report.is_ok()) {
    fail("inspect_store: " + report.status().to_string());
  } else if (!report->healthy()) {
    std::string why = report->problems.empty() ? "" : report->problems.front();
    for (const auto& [rank, chain] : report->chains) {
      if (why.empty() && !chain.problems.empty()) why = chain.problems.front();
    }
    fail("inspect_store: store unhealthy: " + why);
  }
  if (w.store == StoreKind::kRemoteSegment) {
    ++p.attempted;
    if (delta("net.protocol_errors") != 0) {
      fail("net.protocol_errors = " +
           std::to_string(delta("net.protocol_errors")));
    }
  }
  if (Status served = rig.stop_server(); !served.is_ok()) {
    fail("server: " + served.to_string());
  }
  if (rig.timed_tracker && rig.timed_tracker->errors() != 0) {
    fail("tracker calls failed: " +
         std::to_string(rig.timed_tracker->errors()));
  }

  if (log == nullptr) return p;

  // ------------------------------------------------- per-layer attribution
  auto iv = [log](std::initializer_list<const char*> names) {
    std::vector<Interval> all;
    for (const char* n : names) {
      auto part = log->intervals(n);
      all.insert(all.end(), part.begin(), part.end());
    }
    return merge(std::move(all));
  };
  const auto run_iv = iv({"run"});
  const auto apps_iv = iv({"apps.iterate"});
  const auto ckpt_iv = iv({"checkpoint.incremental"});
  const auto not_app = iv({"memtrack.arm", "memtrack.collect",
                           "memtrack.attach", "memtrack.detach",
                           "checkpoint.incremental", "bench.digest"});
  const auto run_children =
      iv({"apps.iterate", "memtrack.arm", "memtrack.collect",
          "memtrack.attach", "memtrack.detach", "checkpoint.incremental",
          "bench.digest"});
  const auto restore_root = iv({"restore"});
  const auto restore_iv = iv({"restore.chain"});
  const auto restore_children = iv({"restore.chain", "restore.verify"});
  const auto store_w = iv({"storage.create", "storage.write", "storage.close"});
  const auto store_r = iv({"storage.open", "storage.read"});
  const auto client_w =
      iv({"net.client.create", "net.client.write", "net.client.close"});
  const auto client_r = iv({"net.client.open", "net.client.read"});
  auto m = [](const std::vector<Interval>& v) { return seconds(measure(v)); };
  auto o = [](const std::vector<Interval>& a, const std::vector<Interval>& b) {
    return seconds(overlap(a, b));
  };
  const TimedBackend& st_io = *rig.store_timed;
  auto& L = p.layers;
  L["apps.self_s"] = m(apps_iv) - o(apps_iv, not_app);
  L["memtrack.collect_s"] = m(iv({"memtrack.arm", "memtrack.collect"}));
  L["memtrack.faults"] = static_cast<double>(faults);
  L["memtrack.dirty_pages"] = static_cast<double>(p.counts.dirty_pages);
  L["memtrack.faults_per_dirty_page"] =
      p.counts.dirty_pages == 0
          ? 0
          : static_cast<double>(faults) /
                static_cast<double>(p.counts.dirty_pages);
  L["checkpoint.stall_s"] = m(ckpt_iv);
  L["checkpoint.self_s"] = m(ckpt_iv) - o(ckpt_iv, client_w);
  L["checkpoint.cpu_s"] = ckpt_cpu_s;
  L["checkpoint.payload_pages"] = static_cast<double>(p.counts.payload_pages);
  L["checkpoint.zero_pages"] = static_cast<double>(p.counts.zero_pages);
  L["checkpoint.rle_pages"] = static_cast<double>(p.counts.rle_pages);
  L["storage.create_s"] = m(iv({"storage.create"}));
  L["storage.write_s"] = m(iv({"storage.write"}));
  L["storage.close_s"] = m(iv({"storage.close"}));
  L["storage.objects"] = static_cast<double>(st_io.counts().objects.load());
  L["storage.write_calls"] =
      static_cast<double>(st_io.counts().write_calls.load());
  L["storage.bytes_written"] =
      static_cast<double>(st_io.counts().bytes_written.load());
  L["storage.fsync_calls"] =
      static_cast<double>(delta("storage.fsync_calls"));
  L["storage.open_s"] = m(iv({"storage.open"}));
  L["storage.read_s"] = m(iv({"storage.read"}));
  L["storage.read_calls"] =
      static_cast<double>(st_io.counts().read_calls.load());
  L["storage.bytes_read"] =
      static_cast<double>(st_io.counts().bytes_read.load());
  L["restore.self_s"] = m(restore_iv) - o(restore_iv, client_r);
  L["restore.verify_s"] = m(iv({"restore.verify"}));
  L["restore.pages_decoded"] = static_cast<double>(p.counts.pages_decoded);
  L["restore.pages_skipped"] =
      static_cast<double>(delta("restore.pages_skipped"));
  L["restore.decoded_per_restored_page"] =
      restored_pages == 0 ? 0
                          : static_cast<double>(p.counts.pages_decoded) /
                                static_cast<double>(restored_pages);
  L["net.put_s"] = m(client_w) - m(store_w);
  L["net.get_s"] = m(client_r) - m(store_r);
  L["net.bytes_in"] = static_cast<double>(delta("net.bytes_in"));
  L["net.bytes_out"] = static_cast<double>(delta("net.bytes_out"));
  L["net.protocol_errors"] =
      static_cast<double>(delta("net.protocol_errors"));
  const double unattributed = (m(run_iv) - o(run_iv, run_children)) +
                              (m(restore_root) -
                               o(restore_root, restore_children));
  L["trace.unattributed_s"] = unattributed;
  L["trace.unattributed_pct"] =
      100.0 * unattributed / (m(run_iv) + m(restore_root));

  // The decorators see exactly what the store accepted.
  const std::uint64_t seen = rig.client_timed->counts().bytes_written.load();
  if (seen != p.counts.bytes_written ||
      seen != rig.backend->total_bytes_stored() ||
      rig.client_timed->counts().errors.load() != 0) {
    fail("storage decorator saw " + std::to_string(seen) + " bytes; "
         "checkpoints wrote " + std::to_string(p.counts.bytes_written) +
         ", backend stored " +
         std::to_string(rig.backend->total_bytes_stored()));
  }
  return p;
}

double run_untracked(const Workload& w, std::uint64_t seed) {
  UntrackedTracker tracker;
  sim::VirtualClock clock;
  apps::AppConfig cfg;
  cfg.footprint_scale = w.scale;
  cfg.seed = seed;
  auto app = apps::make_app(w.app, cfg, tracker, clock);
  if (!app.is_ok() || !(*app)->init().is_ok()) return -1;
  const std::uint64_t t0 = now_ns();
  if (!(*app)->run_until(clock, clock.now() + w.run_vs).is_ok()) return -1;
  return seconds(now_ns() - t0);
}

}  // namespace ledger
