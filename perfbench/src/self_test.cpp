// Self-tests of the harness helpers, run before every workload: the
// percentile rule, CPU accounting across reaped children, and call self
// time. A failing check stops the run before it reports anything.
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>

#include "workloads.h"

namespace perfbench {

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
  }
}

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void test_percentile_rule() {
  // p99 of n samples interpolates at rank 0.99 * (n - 1): 1000 samples
  // leave 10 beyond it, 100 samples leave 1.
  check(samples_beyond(1000, 99.0) == 10, "1000 samples: 10 beyond p99");
  check(samples_beyond(100, 99.0) == 1, "100 samples: 1 beyond p99");
  check(samples_beyond(0, 99.0) == 0, "empty sample");
  check(highest_supported_percentile(1000) == 99.0, "1000 supports p99");
  check(highest_supported_percentile(20000) == 99.0, "p99 is the top level");
  check(highest_supported_percentile(150) == 90.0, "150 supports p90");
  check(highest_supported_percentile(50) == 50.0, "50 supports only p50");

  std::vector<double> ramp;
  for (int i = 1000; i >= 1; --i) ramp.push_back(i);  // unsorted input
  const Digest d = digest(ramp, "ramp");
  check(d.n == 1000, "digest counts samples");
  check(near(d.p50, 500.5, 1e-9), "median of 1..1000");
  check(near(d.p99, 990.01, 1e-9), "p99 of 1..1000");
  check(near(d.mean, 500.5, 1e-9), "mean of 1..1000");

  bool threw = false;
  try {
    (void)digest(std::vector<double>(500, 1.0), "short");
  } catch (const InvalidRun&) {
    threw = true;
  }
  check(threw, "p99 over 500 samples is refused");
  check(near(digest_lenient(std::vector<double>(500, 2.0)).p99, 2.0, 1e-12),
        "lenient digest falls back to a supported percentile");

  // Three windows of 1000: a stall (all 100s) in the middle window moves
  // the pooled p99 but not the median of the window p99s.
  std::vector<double> stalled;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 1000; ++i) stalled.push_back(w == 1 ? 100.0 : i);
  }
  const Digest wd = windowed_digest(stalled, "stalled");
  check(wd.n == 3000, "windowed digest pools the count");
  check(near(wd.p99, 990.01, 1e-9), "windowed p99 is the median window p99");
  check(near(wd.p50, 500.5, 1e-9), "windowed p50 is the median window p50");
  threw = false;
  try {
    (void)windowed_digest(std::vector<double>(900, 1.0), "short");
  } catch (const InvalidRun&) {
    threw = true;
  }
  check(threw, "windowed digest refuses a window too short for p99");
}

void burn_cpu(double ms) {
  const CpuReading start = read_cpu();
  volatile double x = 0.0;
  while (read_cpu().self_ms - start.self_ms < ms) {
    for (int i = 0; i < 10000; ++i) x = x + 1.0;
  }
}

void test_cpu_accounting() {
  // A child that burns ~40 ms before the first reading and ~40 ms after:
  // read live at the start and reaped at the end, the window holds only
  // the second part.
  int to_child[2];
  int from_child[2];
  if (pipe(to_child) != 0 || pipe(from_child) != 0) {
    check(false, "pipe for the CPU accounting test");
    return;
  }
  const pid_t pid = fork();
  if (pid == 0) {
    char c = 0;
    burn_cpu(40.0);
    (void)!write(from_child[1], &c, 1);
    (void)!read(to_child[0], &c, 1);
    burn_cpu(40.0);
    _exit(0);
  }
  char c = 0;
  (void)!read(from_child[0], &c, 1);
  const CpuReading before = read_cpu({pid});
  check(process_cpu_ms(pid) >= 39.0, "live child CPU is readable");
  (void)!write(to_child[1], &c, 1);
  int status = 0;
  waitpid(pid, &status, 0);
  const CpuReading after = read_cpu();
  const double window_children = after.children_ms - before.children_ms;
  check(window_children >= 35.0 && window_children <= 60.0,
        "reaped child contributes only its CPU inside the window");
  check(after.total_ms() >= before.total_ms(), "CPU readings are monotone");
  check(process_cpu_ms(pid) == 0.0, "a reaped child has no CPU clock");
  for (const int fd : {to_child[0], to_child[1], from_child[0],
                       from_child[1]}) {
    close(fd);
  }
}

void test_self_time() {
  // A 10 ms call whose first layer took 6 ms and tail 3 ms has 1 ms of its
  // own; a call with no stages is all self time.
  check(near(self_time_ms(10.0, {6.0, 3.0}), 1.0, 1e-12), "call self time");
  check(near(self_time_ms(2.5, {}), 2.5, 1e-12), "no stages: all self time");
  check(near(self_time_ms(4.0, {4.0}), 0.0, 1e-12), "stages fill the call");
}

}  // namespace

int run_self_tests() {
  failures = 0;
  test_percentile_rule();
  test_cpu_accounting();
  test_self_time();
  return failures;
}

}  // namespace perfbench
