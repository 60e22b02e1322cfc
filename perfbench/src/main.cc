// The repo benchmark: runs one named workload with a given seed and prints
// its metrics, as the last stdout line, in one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The line before it stamps the environment the numbers were taken on.
//
//   cpdg_perfbench --workload <train_cell|serve_hot|serve_live>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// Run files (checkpoint, advance journal) go under .bench_work/ in the
// working directory and are removed when the run ends.
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (README.md in this directory lists both). Every workload prints the same
// names in each mode. Exits 1 when a correctness check fails, 2 on bad
// usage.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/profiler.h"
#include "tensor/simd.h"
#include "util/logging.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* what) {
  std::fprintf(stderr,
               "%s\nusage: cpdg_perfbench --workload "
               "<train_cell|serve_hot|serve_live> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               what);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        return Usage("bad --seconds");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      args.trace = value == "1";
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0.0) return Usage("missing arguments");
  if (args.workload != "train_cell" && args.workload != "serve_hot" &&
      args.workload != "serve_live") {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  cpdg::SetLogLevel(cpdg::LogLevel::kWarning);
  cpdg::obs::SetTraceEnabled(false);
  args.work_dir =
      ".bench_work/" + args.workload + "." + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  Report report;
  try {
    if (args.workload == "train_cell") {
      RunTrainCell(args, &report);
    } else {
      RunServe(args, args.workload == "serve_live", &report);
    }
  } catch (const std::exception& e) {
    report.Fail(std::string("exception: ") + e.what());
  }
  std::filesystem::remove_all(args.work_dir, ec);
  if (args.trace) {
    // Every traced run prints the same metric names; like any layer a
    // workload does not run, another workload's unattributed time is 0.
    // serve_hot is not in BENCHMARK.json, so it gets no such line.
    for (const char* other : {"train_cell", "serve_live"}) {
      if (args.workload != other) {
        report.Add(std::string(other) + ".unattributed_s", 0.0, "s");
      }
    }
  }
  if (report.attempted < 1) report.Fail("no operation was attempted");

  const Threads& t = report.threads;
  const cpdg::tensor::simd::Mode mode = cpdg::tensor::simd::ActiveMode();
  std::printf(
      "{\"env\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %d, \"hardware_concurrency\": %u, "
      "\"simd\": %s, \"avx2\": %s, \"avx_vnni\": %s, \"pool_threads\": %d, "
      "\"shards\": %d, \"generator_threads\": %d, \"feeder_threads\": %d, "
      "\"build_type\": %s}}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0, AvailableCpus(),
      std::thread::hardware_concurrency(),
      JsonString(cpdg::tensor::simd::ModeName(mode)).c_str(),
      cpdg::tensor::simd::Avx2Supported() ? "true" : "false",
      cpdg::tensor::simd::AvxVnniSupported() ? "true" : "false", t.pool,
      t.shards, t.generators, t.feeders,
      JsonString(PERFBENCH_BUILD_TYPE).c_str());

  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = report.errors.empty();
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, value] = report.metrics[i];
    if (i > 0) line += ", ";
    line += JsonString(name) + ": {\"value\": " + JsonNumber(value.first) +
            ", \"unit\": " + JsonString(value.second) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
