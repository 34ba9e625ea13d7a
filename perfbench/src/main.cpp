// perfbench — the repository benchmark's workload binary.
//
//   perfbench --workload kv|hop|ckpt --seed N --seconds S --trace 0|1
//             --run-dir DIR --result FILE [--trace-file FILE]
//   perfbench --selftest --run-dir DIR
//
// Runs one workload and writes its result (metrics, attempted/failed
// counts, correctness verdict, notes) as JSON to FILE.  perfbench/run.py
// builds this binary, adds provenance and prints the report; see
// perfbench/README.md.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "common/log.hpp"
#include "sys/vm.hpp"

namespace perfbench {

namespace {

struct SpanMetric {
  const char* span;
  const char* metric;
  double q;
  bool ns;  // report in ns instead of us
};

// Per-layer latency metrics derived from the benchmark's own spans.
constexpr SpanMetric kSpanMetrics[] = {
    {"rpc.issue", "pm2.rpc.issue_us_p50", 0.5, false},
    {"rpc.request_leg", "pm2.rpc.request_leg_us_p50", 0.5, false},
    {"rpc.request_leg", "pm2.rpc.request_leg_us_p99", 0.99, false},
    {"rpc.handler", "pm2.rpc.handler_us_p50", 0.5, false},
    {"rpc.reply_leg", "pm2.rpc.reply_leg_us_p50", 0.5, false},
    {"rpc.reply_leg", "pm2.rpc.reply_leg_us_p99", 0.99, false},
    {"mad.pack", "madeleine.pack_ns_p50", 0.5, true},
    {"mad.unpack", "madeleine.unpack_ns_p50", 0.5, true},
    {"marcel.mailbox_wake", "marcel.mailbox_wake_us_p50", 0.5, false},
    {"marcel.mailbox_wake", "marcel.mailbox_wake_us_p99", 0.99, false},
    {"marcel.timer_late", "marcel.timer_late_us_p50", 0.5, false},
    {"marcel.timer_late", "marcel.timer_late_us_p99", 0.99, false},
    {"iso.alloc", "isomalloc.alloc_ns_p50", 0.5, true},
    {"iso.alloc", "isomalloc.alloc_ns_p99", 0.99, true},
    {"iso.free", "isomalloc.free_ns_p50", 0.5, true},
    {"iso.negotiation", "isomalloc.negotiation_us_p50", 0.5, false},
    {"mig.depart", "pm2.migration.depart_us_p50", 0.5, false},
    {"mig.transit", "pm2.migration.transit_us_p50", 0.5, false},
    {"mig.transit", "pm2.migration.transit_us_p99", 0.99, false},
    {"mig.resume", "pm2.migration.resume_us_p50", 0.5, false},
    {"store.demote", "pm2.store.demote_us_p50", 0.5, false},
    {"store.fault_back", "pm2.store.fault_back_us_p50", 0.5, false},
};

void json_str(FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", c);
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

void json_metrics(FILE* f, const std::map<std::string, Metric>& m) {
  std::fprintf(f, "{");
  bool first = true;
  for (const auto& [name, v] : m) {
    std::fprintf(f, "%s", first ? "" : ", ");
    json_str(f, name);
    std::fprintf(f, ": {\"value\": %.9g, \"unit\": ", v.value);
    json_str(f, v.unit);
    std::fprintf(f, "}");
    first = false;
  }
  std::fprintf(f, "}");
}

bool write_result(const std::string& path, const Result& r) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu,\n",
               r.correct ? "true" : "false",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  std::fprintf(f, " \"end_to_end\": ");
  json_metrics(f, r.end_to_end);
  std::fprintf(f, ",\n \"per_layer\": ");
  json_metrics(f, r.per_layer);
  std::fprintf(f, ",\n \"info\": [");
  for (size_t i = 0; i < r.info.size(); ++i) {
    std::fprintf(f, "%s[", i ? ", " : "");
    json_str(f, r.info[i].first);
    std::fprintf(f, ", ");
    json_str(f, r.info[i].second);
    std::fprintf(f, "]");
  }
  std::fprintf(f, "],\n \"violations\": [");
  for (size_t i = 0; i < r.violations.size(); ++i) {
    std::fprintf(f, "%s", i ? ", " : "");
    json_str(f, r.violations[i]);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

const char* arg(int argc, char** argv, const char* name, const char* dflt) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return dflt;
}

bool flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return true;
  return false;
}

}  // namespace

void report_span_metrics(Result& r, const std::vector<Span>& spans) {
  std::map<std::string, std::vector<double>> by_name;
  for (const Span& s : spans)
    by_name[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns));
  for (const SpanMetric& m : kSpanMetrics) {
    auto it = by_name.find(m.span);
    if (it == by_name.end()) continue;
    const double ns = percentile(it->second, m.q);
    r.layer(m.metric, m.ns ? ns : ns / 1e3, m.ns ? "ns" : "us");
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  pm2::log::init_from_env();
  Options opt;
  opt.workload = arg(argc, argv, "--workload", "");
  opt.seed = std::stoull(arg(argc, argv, "--seed", "1"));
  opt.seconds = std::stod(arg(argc, argv, "--seconds", "10"));
  opt.trace = std::string(arg(argc, argv, "--trace", "0")) == "1";
  opt.run_dir = arg(argc, argv, "--run-dir", ".bench_build/run");
  opt.trace_path = arg(argc, argv, "--trace-file", "");
  opt.exe = std::filesystem::canonical("/proc/self/exe").string();
  std::filesystem::create_directories(opt.run_dir);

  if (flag(argc, argv, "--selftest")) return run_selftests(opt);
  if (flag(argc, argv, "--restore-child"))
    return ckpt_restore_child(opt, argc, argv);

  const std::string result_path = arg(argc, argv, "--result", "");
  if (result_path.empty()) {
    std::fprintf(stderr, "perfbench: --result FILE is required\n");
    return 2;
  }
  if (opt.trace && opt.trace_path.empty())
    opt.trace_path = opt.run_dir + "/trace-" + opt.workload + ".json";
  Result r;
  if (opt.workload == "kv") {
    r = run_kv(opt);
  } else if (opt.workload == "hop") {
    r = run_hop(opt);
  } else if (opt.workload == "ckpt") {
    r = run_ckpt(opt);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  r.note("soft_dirty", pm2::sys::soft_dirty_supported() ? "true" : "false");
  if (!write_result(result_path, r)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", result_path.c_str());
    return 2;
  }
  return r.correct ? 0 : 1;
}
