// e2e_ledger: the end-to-end checkpoint ledger.
//
//   e2e_ledger --workload NAME --seed N --seconds S --trace 0|1
//              --state-dir DIR --out-dir DIR
//
// Untraced (--trace 0): repeats whole passes (set-up, tracked run with a
// checkpoint per virtual second, restores, verification, store check)
// for about S seconds and reports the end-to-end metrics as medians
// over passes.  Traced (--trace 1): repeats pairs of an untraced and a
// traced pass, each followed by a run of the app without any tracker,
// and reports the per-layer metrics as medians over the traced passes.
// Every pass of a run must repeat the first pass's counts exactly.
//
// Stdout ends with a provenance line and then the result line
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// A copy of both, the deterministic counts and the per-pass values go
// to DIR/<workload>-seed<N>-trace<T>.json; traced runs also write every
// span of traced pass i to DIR/<workload>-seed<N>.pass<i>.spans.json.
// Exit status is 0 only when no operation failed.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/page.h"
#include "ledger.h"
#include "memtrack/tracker.h"
#include "workload.h"

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif

namespace ledger {
namespace {

constexpr std::size_t kMaxPasses = 64;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string state_dir = ".bench_build/e2e_ledger/state";
  std::string out_dir = ".bench_build/e2e_ledger/results";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") return false;
        a.trace = v == "1";
      } else if (flag == "--state-dir") {
        a.state_dir = v;
      } else if (flag == "--out-dir") {
        a.out_dir = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string fs_type(const std::string& dir) {
  struct statfs sfs {};
  if (::statfs(dir.c_str(), &sfs) != 0) return "unknown";
  switch (static_cast<unsigned long>(sfs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(sfs.f_type));
      return buf;
    }
  }
}

/// Payload MB committed per second of checkpoint stall.
double mb_s(const PassResult& p) {
  double stall_s = 0;
  for (double ms : p.stall_ms) stall_s += ms * 1e-3;
  return stall_s > 0 ? static_cast<double>(p.payload_bytes) / 1e6 / stall_s
                     : 0.0;
}

/// Stored object bytes per payload byte.
double stored_per_dirty(const PassResult& p) {
  return p.payload_bytes > 0 ? static_cast<double>(p.counts.bytes_written) /
                                   static_cast<double>(p.payload_bytes)
                             : 0.0;
}

std::string engine_name(memtrack::EngineKind k) {
  return std::string(memtrack::to_string(k));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? "," : "") + quoted(ms[i].name) + ":{\"value\":" +
           num(ms[i].value) + ",\"unit\":" + quoted(ms[i].unit) + "}";
  }
  return out + "}";
}

std::string counts_json(const Counts& c) {
  std::ostringstream o;
  o << "{\"checkpoints\":" << c.checkpoints
    << ",\"memtrack.dirty_pages\":" << c.dirty_pages
    << ",\"checkpoint.payload_pages\":" << c.payload_pages
    << ",\"checkpoint.zero_pages\":" << c.zero_pages
    << ",\"checkpoint.rle_pages\":" << c.rle_pages
    << ",\"storage.bytes_written\":" << c.bytes_written
    << ",\"restore.pages_decoded\":" << c.pages_decoded << "}";
  return o.str();
}

/// Unit of each per-layer metric, in report order.
const std::vector<std::pair<std::string, const char*>>& layer_units() {
  static const std::vector<std::pair<std::string, const char*>> units = {
      {"apps.self_s", "s"},
      {"apps.untracked_s", "s"},
      {"memtrack.fault_s", "s"},
      {"memtrack.collect_s", "s"},
      {"memtrack.faults", "count"},
      {"memtrack.dirty_pages", "count"},
      {"memtrack.faults_per_dirty_page", "ratio"},
      {"checkpoint.stall_s", "s"},
      {"checkpoint.self_s", "s"},
      {"checkpoint.cpu_s", "s"},
      {"checkpoint.payload_pages", "count"},
      {"checkpoint.zero_pages", "count"},
      {"checkpoint.rle_pages", "count"},
      {"storage.create_s", "s"},
      {"storage.write_s", "s"},
      {"storage.close_s", "s"},
      {"storage.objects", "count"},
      {"storage.write_calls", "count"},
      {"storage.bytes_written", "B"},
      {"storage.fsync_calls", "count"},
      {"storage.open_s", "s"},
      {"storage.read_s", "s"},
      {"storage.read_calls", "count"},
      {"storage.bytes_read", "B"},
      {"restore.self_s", "s"},
      {"restore.verify_s", "s"},
      {"restore.pages_decoded", "count"},
      {"restore.pages_skipped", "count"},
      {"restore.decoded_per_restored_page", "ratio"},
      {"net.put_s", "s"},
      {"net.get_s", "s"},
      {"net.bytes_in", "B"},
      {"net.bytes_out", "B"},
      {"net.protocol_errors", "count"},
      {"trace.unattributed_s", "s"},
      {"trace.unattributed_pct", "%"},
      {"trace.overhead_pct", "%"},
      {"trace.dropped_spans", "count"},
      {"trace.spans", "count"},
  };
  return units;
}

int run(const Args& a) {
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << a.workload << "'; known:";
    for (const auto& n : workload_names()) std::cerr << ' ' << n;
    std::cerr << '\n';
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(a.out_dir, ec);
  const std::string store_dir = a.state_dir + "/" + w->name;
  const std::uint64_t start = now_ns();
  auto elapsed = [start] { return static_cast<double>(now_ns() - start) * 1e-9; };

  // Untraced: whole passes until the time is up.  Traced: pairs of an
  // untraced and a traced pass (so tracing overhead compares like with
  // like), each followed by the same app run without any tracker.
  std::vector<PassResult> passes;
  std::vector<PassResult> traced;
  std::vector<std::unique_ptr<SpanLog>> logs;
  std::vector<double> untracked;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  auto absorb = [&](const PassResult& p) {
    attempted += p.attempted;
    failed += p.failed;
    for (const auto& e : p.errors) errors.push_back(e);
  };
  std::vector<double> walls;
  while (true) {
    const double t0 = elapsed();
    passes.push_back(run_pass(*w, a.seed, store_dir, nullptr));
    absorb(passes.back());
    if (a.trace) {
      logs.push_back(std::make_unique<SpanLog>());
      traced.push_back(run_pass(*w, a.seed, store_dir, logs.back().get()));
      absorb(traced.back());
      ++attempted;
      untracked.push_back(run_untracked(*w, a.seed));
      if (untracked.back() < 0) {
        ++failed;
        errors.push_back("untracked run failed");
      }
    }
    walls.push_back(elapsed() - t0);
    if (passes.size() >= kMaxPasses || elapsed() + median(walls) > a.seconds) {
      break;
    }
  }
  remove_store(store_dir);

  // Same seed, same counts: every pass must repeat the first exactly.
  std::vector<const PassResult*> all;
  for (const auto& p : passes) all.push_back(&p);
  for (const auto& p : traced) all.push_back(&p);
  for (std::size_t i = 1; i < all.size(); ++i) {
    ++attempted;
    if (!(all[i]->counts == all[0]->counts)) {
      ++failed;
      errors.push_back("pass " + std::to_string(i) +
                       " counts differ from pass 0: " +
                       counts_json(all[i]->counts) + " vs " +
                       counts_json(all[0]->counts));
    }
  }

  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  // Every metric is the median over the run's passes of that pass's
  // value; per-operation quantiles (stall p50/p90) are taken per pass.
  auto over_passes = [](const std::vector<PassResult>& ps, auto&& f) {
    std::vector<double> v;
    for (const auto& p : ps) v.push_back(f(p));
    return median(std::move(v));
  };
  std::vector<Metric> metrics;
  std::size_t stall_samples = all.front()->stall_ms.size();
  if (!a.trace) {
    metrics = {
        {"run_s", over_passes(passes, [](auto& p) { return p.run_s; }),
         "s"},
        {"ckpt_p50_ms", over_passes(passes, [](auto& p) {
           return quantile(p.stall_ms, 0.5);
         }), "ms"},
        {"ckpt_p90_ms", over_passes(passes, [](auto& p) {
           return quantile(p.stall_ms, 0.9);
         }), "ms"},
        {"ckpt_mb_s", over_passes(passes, mb_s), "MB/s"},
        {"restore_s",
         over_passes(passes, [](auto& p) { return p.restore_s; }), "s"},
        {"stored_per_dirty", over_passes(passes, stored_per_dirty), "ratio"},
        {"cpu_s", over_passes(passes, [](auto& p) { return p.cpu_s; }),
         "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"setup_s", over_passes(passes, [](auto& p) { return p.setup_s; }),
         "s"},
    };
  } else {
    for (std::size_t i = 0; i < traced.size(); ++i) {
      auto& L = traced[i].layers;
      L["apps.untracked_s"] = untracked[i];
      L["memtrack.fault_s"] = L["apps.self_s"] - untracked[i];
      L["trace.overhead_pct"] =
          passes[i].run_s > 0
              ? 100.0 * (traced[i].run_s - passes[i].run_s) / passes[i].run_s
              : 0.0;
      L["trace.dropped_spans"] =
          static_cast<double>(logs[i]->begun() - logs[i]->recorded());
      L["trace.spans"] = static_cast<double>(logs[i]->recorded());
      if (logs[i]->begun() != logs[i]->recorded()) {
        ++failed;
        errors.push_back("trace dropped spans");
      }
    }
    for (const auto& [name, unit] : layer_units()) {
      metrics.push_back({name, over_passes(traced, [&name](auto& p) {
                           return p.layers.count(name) ? p.layers.at(name)
                                                       : 0.0;
                         }), unit});
    }
  }

  const std::string tag = w->name + "-seed" + std::to_string(a.seed);
  for (std::size_t i = 0; i < logs.size(); ++i) {
    Status s = logs[i]->write_json(a.out_dir + "/" + tag + ".pass" +
                                   std::to_string(i) + ".spans.json");
    if (!s.is_ok()) std::cerr << "e2e_ledger: " << s.to_string() << '\n';
  }

  std::ostringstream prov;
  prov << "{\"workload\":" << quoted(w->name)
       << ",\"app\":" << quoted(w->app) << ",\"scale\":" << num(w->scale)
       << ",\"engine\":" << quoted(engine_name(w->engine))
       << ",\"encode_threads\":" << w->threads
       << ",\"full_every\":" << w->full_every
       << ",\"run_vs\":" << num(w->run_vs) << ",\"seed\":" << a.seed
       << ",\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
       << ",\"crc_kernel\":"
       << quoted(crc32_kernel_name(crc32_active_kernel()))
       << ",\"page_size\":" << page_size()
       << ",\"build_type\":" << quoted(LEDGER_BUILD_TYPE)
       << ",\"store_fs\":" << quoted(fs_type(a.state_dir))
       << ",\"footprint_bytes\":" << all.front()->footprint_bytes
       << ",\"llc_bytes\":" << ::sysconf(_SC_LEVEL3_CACHE_SIZE)
       << ",\"passes\":" << all.size()
       << ",\"ckpt_stall_samples_per_pass\":" << stall_samples
       << ",\"counts\":" << counts_json(passes.front().counts)
       << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    prov << (i ? "," : "") << quoted(errors[i]);
  }
  prov << "]}";

  std::ostringstream result;
  result << "{\"correct\":" << (failed == 0 ? "true" : "false")
         << ",\"attempted\":" << std::max<std::uint64_t>(attempted, 1)
         << ",\"failed\":" << failed
         << ",\"metrics\":" << metrics_json(metrics) << "}";

  std::ostringstream per_pass;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    per_pass << (i ? "," : "") << "{\"setup_s\":" << num(p.setup_s)
             << ",\"run_s\":" << num(p.run_s)
             << ",\"restore_s\":" << num(p.restore_s)
             << ",\"cpu_s\":" << num(p.cpu_s)
             << ",\"ckpt_p50_ms\":" << num(quantile(p.stall_ms, 0.5))
             << ",\"ckpt_p90_ms\":" << num(quantile(p.stall_ms, 0.9))
             << ",\"ckpt_mb_s\":" << num(mb_s(p))
             << ",\"stored_per_dirty\":" << num(stored_per_dirty(p)) << "}";
  }
  std::ofstream(a.out_dir + "/" + tag + "-trace" + (a.trace ? "1" : "0") +
                ".json")
      << "{\"provenance\":" << prov.str() << ",\"untraced_passes\":["
      << per_pass.str() << "],\"result\":" << result.str() << "}\n";
  for (const auto& e : errors) std::cerr << "e2e_ledger: FAILED: " << e << '\n';
  std::cout << "{\"provenance\":" << prov.str() << "}\n"
            << result.str() << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  ledger::Args args;
  if (!ledger::parse_args(argc, argv, args)) {
    std::cerr << "usage: e2e_ledger --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--state-dir DIR] [--out-dir DIR]\n";
    return 2;
  }
  return ledger::run(args);
}
