//===- main.cpp - marionbench command line --------------------------------==//
//
//   marionbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--work-dir <dir>]
//   marionbench --list-metrics
//   marionbench --self-test [--work-dir <dir>]
//
// A run prints one "# <metric> <value> <unit>" line per metric, then, as
// its last line, {"correct", "attempted", "failed", "metrics"}: every
// end-to-end metric with --trace 0, every per-layer metric with --trace 1.
// A metric the workload should produce and did not fails the run; a layer
// metric of a layer the workload bypasses reads 0.
// --seconds scales the fixed op counts of a run; it never stops one early.
// End-to-end timings are printed at the reference host speed (hostScale),
// each with its measured value on a "# measured" line.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

using namespace mb;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: marionbench --workload "
               "<compile_cold|simulate_suite|daemon_edit_mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n"
               "       marionbench --list-metrics\n"
               "       marionbench --self-test [--work-dir <dir>]\n");
  return 2;
}

void listMetrics() {
  for (const MetricSpec &S : endToEndMetrics())
    std::printf("end_to_end %s %s %s\n", S.Name.c_str(), S.Unit.c_str(),
                S.Better.c_str());
  for (const MetricSpec &S : perLayerMetrics())
    std::printf("per_layer %s %s %s\n", S.Name.c_str(), S.Unit.c_str(),
                S.Better.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  // The libraries locate machine descriptions and workloads relative to the
  // repository they were built from.
  setenv("MARION_MACHINE_DIR", MARIONBENCH_REPO_ROOT "/machines", 0);
  setenv("MARION_WORKLOAD_DIR", MARIONBENCH_REPO_ROOT "/workloads", 0);

  Options O;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false, SelfTest = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--list-metrics") {
      listMetrics();
      return 0;
    }
    if (A == "--self-test") {
      SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage();
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !V.empty();
    } else if (A == "--seconds") {
      unsigned long S = std::strtoul(V.c_str(), &End, 10);
      O.Seconds = static_cast<unsigned>(S);
      HaveSeconds = *End == '\0' && S >= 1 && S <= 3600;
    } else if (A == "--trace") {
      O.Trace = V == "1";
      HaveTrace = V == "0" || V == "1";
    } else if (A == "--work-dir") {
      O.WorkDir = V;
    } else {
      return usage();
    }
  }
  std::error_code EC;
  std::filesystem::create_directories(O.WorkDir, EC);
  if (SelfTest)
    return runSelfTest(O);
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage();
  RunResult (*Run)(const Options &, Tracer &) = nullptr;
  if (O.Workload == "compile_cold")
    Run = runCompileCold;
  else if (O.Workload == "simulate_suite")
    Run = runSimulateSuite;
  else if (O.Workload == "daemon_edit_mix")
    Run = runDaemonEditMix;
  else
    return usage();

  const double CalibStart = hostCalibMs();
  // driver::loadTarget's resident target cache is filled before set-up, so
  // every set-up repetition does the same work, fresh table builds included.
  {
    marion::DiagnosticEngine Diags;
    for (const std::string &M : kMachines)
      (void)marion::driver::loadTarget(M, Diags);
  }
  Tracer T(O.Trace);
  RunResult R = Run(O, T);
  const double CalibEnd = hostCalibMs();
  const double Calib = (CalibStart + CalibEnd) / 2;
  std::printf("# host.calib_ms start %.4f end %.4f\n", CalibStart, CalibEnd);
  const double Scale = hostScale();
  std::printf("# host.probe_ms %.5f (%zu chunks) scale %.5f\n",
              kProbeRefMs / Scale, probeTimes().size(), Scale);

  if (O.Trace) {
    const std::string Path = O.WorkDir + "/trace-" + O.Workload + "-" +
                             std::to_string(O.Seed) + ".json";
    std::string Error;
    if (!T.write(Path, Error))
      R.problem(Error);
    else
      std::printf("# trace %s (%zu spans)\n", Path.c_str(), T.size());
    R.set("host.calib_ms", Calib);
  } else {
    // End-to-end timings read as at the reference host speed (hostScale);
    // the measured values are printed beside them.
    if (!std::isfinite(Scale))
      R.problem("no host probe ran");
    for (const MetricSpec &S : endToEndMetrics()) {
      auto It = R.Values.find(S.Name);
      const bool Time = S.Unit == "s" || S.Unit == "ms";
      const bool Rate = S.Unit.ends_with("/s");
      if (It == R.Values.end() || !(Time || Rate))
        continue;
      std::printf("# measured %-27s %16.12g %s\n", S.Name.c_str(),
                  It->second, S.Unit.c_str());
      It->second = Time ? It->second * Scale : It->second / Scale;
    }
    R.set("peak_rss_mb", peakRssMiB());
    R.set("ok_share", R.Attempted ? static_cast<double>(R.Attempted - R.Failed) /
                                        static_cast<double>(R.Attempted)
                                  : 0);
  }

  // Every metric of the run's kind is printed. One the workload should
  // produce and did not (or computed from an empty sample) fails the run;
  // a layer the workload bypasses reads 0.
  const std::vector<MetricSpec> &Specs =
      O.Trace ? perLayerMetrics() : endToEndMetrics();
  const std::set<std::string> Owned = ownedLayerMetrics(O.Workload);
  std::string Json;
  for (const MetricSpec &S : Specs) {
    auto It = R.Values.find(S.Name);
    const bool Have = It != R.Values.end() && std::isfinite(It->second);
    if (!Have && (!O.Trace || Owned.count(S.Name)))
      R.problem("no value for " + S.Name);
    const double V = Have ? It->second : 0;
    char Buf[96];
    std::snprintf(Buf, sizeof Buf, "%.12g", V);
    std::printf("# %-36s %16s %s\n", S.Name.c_str(), Buf, S.Unit.c_str());
    Json += std::string(Json.empty() ? "" : ", ") + "\"" + S.Name +
            "\": {\"value\": " + Buf + ", \"unit\": \"" + S.Unit + "\"}";
  }
  for (const std::string &P : R.Problems)
    std::fprintf(stderr, "marionbench: check failed: %s\n", P.c_str());
  if (R.Attempted == 0) {
    std::fprintf(stderr, "marionbench: no op ran; no result\n");
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              R.correct() ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Json.c_str());
  return 0;
}
