// Tests of the benchmark's own helpers (harness.hpp). Build and run with
//   cmake --build .bench_build --target hbench_tests && ctest --test-dir .bench_build
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol;
}

void test_percentile_rule() {
  using hbench::highest_supported_percentile;
  // p99 leaves exactly ten samples beyond it at n = 1000, nine at 999.
  EXPECT(highest_supported_percentile(1000) == 99.0);
  EXPECT(highest_supported_percentile(999) == 95.0);
  EXPECT(highest_supported_percentile(10000) == 99.9);
  EXPECT(highest_supported_percentile(200) == 95.0);
  EXPECT(highest_supported_percentile(100) == 90.0);
  EXPECT(highest_supported_percentile(20) == 50.0);
  EXPECT(highest_supported_percentile(19) == 0.0);

  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);  // 1..1000
  EXPECT(hbench::quantile(v, 0.99) == 990.0);
  EXPECT(hbench::quantile(v, 0.50) == 500.0);
  EXPECT(hbench::median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(hbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5);
  // A failed request (infinite latency) counts as missing every limit.
  v[0] = std::numeric_limits<double>::infinity();
  EXPECT(hbench::quantile(v, 0.99) == 991.0);
}

void test_open_loop_schedule() {
  const std::vector<double> a = hbench::poisson_schedule(7, 400.0, 20000);
  const std::vector<double> b = hbench::poisson_schedule(7, 400.0, 20000);
  const std::vector<double> c = hbench::poisson_schedule(8, 400.0, 20000);
  EXPECT(a == b);
  EXPECT(a != c);
  bool increasing = a.front() > 0.0;
  for (std::size_t i = 1; i < a.size(); ++i)
    increasing = increasing && a[i] > a[i - 1];
  EXPECT(increasing);
  // Mean inter-arrival 1/rate within 3% over 20000 draws (the standard
  // error is 0.7%).
  const double mean_gap = a.back() / static_cast<double>(a.size());
  EXPECT(std::fabs(mean_gap * 400.0 - 1.0) < 0.03);

  hbench::OpenLoopSample on_time{1.0, 1.0, 0.002, true};
  EXPECT(near(hbench::lateness_s(on_time), 0.0));
  EXPECT(near(hbench::latency_from_due_s(on_time), 0.002));
  // A generator stall of 5 ms is charged to the request it delayed.
  hbench::OpenLoopSample late{1.0, 1.005, 0.002, true};
  EXPECT(near(hbench::lateness_s(late), 0.005));
  EXPECT(near(hbench::latency_from_due_s(late), 0.007));
  hbench::OpenLoopSample failed{1.0, 1.0, 0.002, false};
  EXPECT(std::isinf(hbench::latency_from_due_s(failed)));
}

void test_self_time() {
  EXPECT(near(hbench::union_length({}, 0.0, 1.0), 0.0));
  EXPECT(near(hbench::union_length({{0.1, 0.3}, {0.2, 0.4}, {0.6, 0.7}},
                                   0.0, 1.0),
              0.4));
  // Children are clipped to the parent's interval.
  EXPECT(near(hbench::union_length({{-1.0, 0.5}, {0.9, 2.0}}, 0.0, 1.0),
              0.6));

  hbench::SpanRecorder tr(true);
  const int parent = tr.add({"factorize", -1, 0, 0, 0.0, 10.0});
  tr.add({"getrf", parent, 0, 1, 1.0, 4.0});
  tr.add({"trsm", parent, 0, 2, 3.0, 6.0});  // overlaps getrf on another worker
  tr.add({"gemm", parent, 0, 1, 8.0, 9.0});
  tr.add({"unrelated", -1, 0, 0, 2.0, 9.0});
  EXPECT(near(tr.self_s(parent), 10.0 - 6.0));
  EXPECT(near(tr.self_s(1), 3.0));

  hbench::SpanRecorder off(false);
  EXPECT(off.open("x", -1, 0) == -1);
  EXPECT(off.spans().empty());
}

void test_peak_rss() {
  const std::string status =
      "Name:\thbench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\n"
      "VmRSS:\t  100000 kB\n";
  EXPECT(near(hbench::parse_vm_hwm_mb(status), 123456.0 * 1024.0 / 1e6));
  EXPECT(hbench::parse_vm_hwm_mb("Name:\tx\n") < 0.0);
  EXPECT(hbench::parse_vm_hwm_mb("VmHWM:\t12 MB\n") < 0.0);

  const double before = hbench::peak_rss_mb();
  EXPECT(before > 0.0);
  const std::size_t bytes = 64u << 20;
  std::unique_ptr<char[]> block(new char[bytes]);
  std::memset(block.get(), 1, bytes);
  const double after = hbench::peak_rss_mb();
  EXPECT(after >= before + 0.9 * static_cast<double>(bytes) / 1e6);
  EXPECT(block[bytes - 1] == 1);
}

void test_result_line() {
  const std::string s = hbench::result_json(
      true, 3, 0, {{"setup_s", 0.125, "s"}, {"serve.rps", 1000.5, "1/s"}});
  EXPECT(s ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
         "{\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}, \"serve.rps\": "
         "{\"value\": 1000.5, \"unit\": \"1/s\"}}}");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_open_loop_schedule();
  test_self_time();
  test_peak_rss();
  test_result_line();
  if (g_failures == 0) std::printf("hbench_tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
