// Benchmark self-tests: the generators, the accounting and the oracles the
// workloads rely on, checked on fixed inputs.  The trace file written here
// is parsed by run.py, which checks its begin/end pairs.
#include <cstdio>
#include <cstring>

#include "bench.hpp"
#include "kv_model.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* test, const std::string& detail = {}) {
  std::printf("selftest %-28s %s%s%s\n", test, ok ? "ok" : "FAIL",
              detail.empty() ? "" : ": ", detail.c_str());
  if (!ok) ++g_failures;
}

void test_zipf() {
  const uint64_t n = 100'000;
  const double theta = 0.99;
  Zipf z(n, theta);
  // The table against an independent evaluation of H(k)/H(n).
  long double hn = 0;
  for (uint64_t i = n; i >= 1; --i) hn += 1.0L / powl(static_cast<long double>(i), theta);
  const uint64_t ks[] = {0, 1, 9, 99, 999, 9999, 99'998};
  double worst_table = 0;
  for (uint64_t k : ks) {
    long double hk = 0;
    for (uint64_t i = k + 1; i >= 1; --i) hk += 1.0L / powl(static_cast<long double>(i), theta);
    worst_table = std::max(worst_table,
                           std::fabs(static_cast<double>(hk / hn) - z.cdf(k)));
  }
  // Samples against the analytic CDF (Kolmogorov bound at these points).
  Rng rng(42);
  const size_t draws = 1'000'000;
  std::vector<uint64_t> hist(n, 0);
  for (size_t i = 0; i < draws; ++i) ++hist[z.sample(rng)];
  double worst = 0;
  uint64_t cum = 0, next = 0;
  for (uint64_t k = 0; k < n && next < std::size(ks); ++k) {
    cum += hist[k];
    if (k == ks[next]) {
      worst = std::max(worst, std::fabs(static_cast<double>(cum) / draws - z.cdf(k)));
      ++next;
    }
  }
  char d[128];
  std::snprintf(d, sizeof d, "table err %.2g, sample err %.4f (limit 0.003)",
                worst_table, worst);
  expect(worst_table < 1e-9 && worst < 0.003, "zipf_matches_analytic_cdf", d);
}

void test_open_loop() {
  // Requests due every 100 us; the sender stalls 5 ms just before request
  // 10, then catches up.  Each request is served 20 us after it is sent.
  OpenLoop sched{1'000'000, 100'000};
  const uint64_t stall_end = sched.due(10) + 5'000'000;
  bool ok = true;
  for (uint64_t i = 0; i < 80; ++i) {
    const uint64_t sent = std::max(sched.due(i), i >= 10 ? stall_end : 0);
    const uint64_t done = sent + 20'000;
    const double lat = sched.latency_us(i, done);
    const double expected = static_cast<double>(done - sched.due(i)) / 1e3;
    ok = ok && lat == expected;
    if (i == 10) ok = ok && lat >= 5000.0;  // the stall is charged
    if (i == 11) ok = ok && lat >= 4900.0;  // and so is the queue behind it
  }
  expect(ok, "open_loop_charges_stall");
}

void test_kv_checker() {
  KvModel m(10, 7);
  const uint32_t v2 = m.issue_update(3);
  bool ok = m.ack_update(3, v2, v2).empty();
  const uint32_t lo = m.read_floor(3);
  std::vector<uint8_t> fresh(value_len(7, 3, v2)), stale(value_len(7, 3, 1));
  fill_value(7, 3, v2, fresh.data());
  fill_value(7, 3, 1, stale.data());
  ok = ok && m.check_read(3, lo, fresh.data(), fresh.size()).empty();
  const std::string err = m.check_read(3, lo, stale.data(), stale.size());
  ok = ok && !err.empty();
  fresh[fresh.size() / 2] ^= 1;
  ok = ok && !m.check_read(3, lo, fresh.data(), fresh.size()).empty();
  ok = ok && !m.check_final(3, 1).empty() && m.check_final(3, v2).empty();
  expect(ok, "kv_checker_flags_stale_read", err);
}

void test_hop_checksum() {
  std::vector<uint8_t> block(64 << 10);
  Rng rng(9);
  stamp_block(block.data(), block.size(), rng);
  const uint64_t sum = block_sum(block.data(), block.size());
  bool ok = true;
  for (int trial = 0; trial < 64; ++trial) {
    const size_t off = rng.below(block.size());
    const auto bit = static_cast<uint8_t>(1u << rng.below(8));
    block[off] ^= bit;
    ok = ok && block_sum(block.data(), block.size()) != sum;
    block[off] ^= bit;
  }
  ok = ok && block_sum(block.data(), block.size()) == sum;
  expect(ok, "hop_checksum_flags_flipped_byte");
}

void test_trace(const Options& opt) {
  Tracer& tr = Tracer::get();
  tr.clear();
  tr.set_on(true);
  for (uint64_t op = 1; op <= 3; ++op) {
    const uint64_t b = op * 1000;
    tr.root(op, b, b + 100, "op");
    tr.span(op, b + 10, b + 30, "rpc.issue", Layer::kRpc);
    tr.span(op, b + 20, b + 50, "rpc.request_leg", Layer::kRpc, SpanKind::kWait);
    tr.span(op, b + 60, b + 70, "mad.unpack", Layer::kMadeleine);
  }
  tr.set_on(false);
  std::vector<Span> spans = tr.collect();
  tr.clear();
  auto sum = summarize(spans);
  // Root self time: 100 minus the union [10,50) + [60,70) = 50 per op.
  const bool self_ok = sum["op"].count == 3 &&
                       std::fabs(sum["op"].self_us - 0.150) < 1e-9 &&
                       std::fabs(sum["pm2.rpc"].wait_us - 0.090) < 1e-9;
  expect(self_ok, "trace_self_time");
  write_chrome_trace(opt.run_dir + "/selftest-trace.json", spans, 100);
  expect(spans.size() == 12, "trace_written",
         opt.run_dir + "/selftest-trace.json");
}

}  // namespace

int run_selftests(const Options& opt) {
  test_zipf();
  test_open_loop();
  test_kv_checker();
  test_hop_checksum();
  test_trace(opt);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
