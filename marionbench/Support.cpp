//===- Support.cpp - Statistics, catalog, spans and cells -----------------==//

#include "Bench.h"

#include "support/Diagnostics.h"
#include "support/Paths.h"
#include "target/TargetBuilder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>
#include <numeric>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

using namespace marion;

namespace mb {

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return std::numeric_limits<double>::quiet_NaN();
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * static_cast<double>(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

double mean(const std::vector<double> &V) {
  return V.empty() ? std::numeric_limits<double>::quiet_NaN()
                   : sum(V) / static_cast<double>(V.size());
}

std::vector<double> fastestThird(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  V.resize((V.size() + 2) / 3);
  return V;
}

uint64_t digest(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char Ch : S) {
    H ^= Ch;
    H *= 0x100000001b3ull;
  }
  return H;
}

double hostCalibMs() {
  auto T0 = Clock::now();
  volatile uint64_t Sink = 0;
  uint64_t X = 0x243f6a8885a308d3ull;
  for (unsigned I = 0; I < 20'000'000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
  }
  Sink = X;
  (void)Sink;
  return msBetween(T0, Clock::now());
}

namespace {

std::mutex ProbeMutex;
std::vector<double> ProbeMs; ///< Every probe chunk's time, in ms.

/// One cycle through 64 Ki slots (256 KiB, about one core's L2) in a fixed
/// random order (Sattolo's algorithm), so every step of the walk is a
/// dependent load the prefetchers cannot predict.
const std::vector<uint32_t> &probeCycle() {
  static const std::vector<uint32_t> Cycle = [] {
    std::vector<uint32_t> C(64 * 1024);
    std::iota(C.begin(), C.end(), 0u);
    Rng R(0x243f6a8885a308d3ull);
    for (size_t I = C.size() - 1; I > 0; --I)
      std::swap(C[I], C[R.below(I)]);
    return C;
  }();
  return Cycle;
}

double probeChunkMs() {
  const std::vector<uint32_t> &Cycle = probeCycle();
  const Clock::time_point T0 = Clock::now();
  uint32_t X = 0;
  for (unsigned I = 0; I < kProbeSteps; ++I)
    X = Cycle[X];
  volatile uint32_t Sink = X;
  (void)Sink;
  return msBetween(T0, Clock::now());
}

} // namespace

void probeHost(unsigned Chunks) {
  thread_local Clock::time_point Last{};
  if (Chunks == 0) {
    if (Clock::now() - Last < std::chrono::milliseconds(10))
      return;
    Chunks = 1;
  }
  std::vector<double> Ms;
  for (unsigned I = 0; I < Chunks; ++I)
    Ms.push_back(probeChunkMs());
  Last = Clock::now();
  std::lock_guard<std::mutex> Lock(ProbeMutex);
  ProbeMs.insert(ProbeMs.end(), Ms.begin(), Ms.end());
}

std::vector<double> probeTimes() {
  std::lock_guard<std::mutex> Lock(ProbeMutex);
  return ProbeMs;
}

double hostScale() {
  return kProbeRefMs / mean(fastestThird(probeTimes()));
}

/// The CPUs this process may run on, as found at first use.
static const cpu_set_t &startMask() {
  static const cpu_set_t Mask = [] {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof Set, &Set) != 0)
      CPU_ZERO(&Set);
    return Set;
  }();
  return Mask;
}

void nextCpu() {
  static const std::vector<int> Cpus = [] {
    std::vector<int> V;
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &startMask()))
        V.push_back(C);
    return V;
  }();
  thread_local size_t Next = 0;
  thread_local Clock::time_point Last{};
  const Clock::time_point Now = Clock::now();
  if (Cpus.size() < 2 || Now - Last < std::chrono::milliseconds(200))
    return;
  Last = Now;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpus[Next++ % Cpus.size()], &One);
  (void)sched_setaffinity(0, sizeof One, &One);
}

void allCpus() {
  if (CPU_COUNT(&startMask()) > 0)
    (void)sched_setaffinity(0, sizeof(cpu_set_t), &startMask());
}

double setupMedian(const std::vector<double> &SetupS) {
  std::printf("# setup_s repetitions");
  for (double S : SetupS)
    std::printf(" %.4f", S);
  std::printf("\n");
  return percentile(SetupS, 0.5);
}

double peakRssMiB() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

//===-- Catalog -------------------------------------------------------------==//

const std::vector<MetricSpec> &endToEndMetrics() {
  static const std::vector<MetricSpec> M = {
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MiB", "lower"},
      {"ok_share", "ratio", "higher"},
      {"latency_ms.p50", "ms", "lower"},
      {"latency_ms.p90", "ms", "lower"},
      {"latency_ms.p99", "ms", "lower"},
      {"ops_per_s", "1/s", "higher"},
      {"compiled_instrs_per_s", "instrs/s", "higher"},
      {"sim_instrs_per_s", "instrs/s", "higher"},
      {"code.static_instrs", "instrs", "lower"},
      {"code.cycles", "cycles", "lower"},
  };
  return M;
}

/// Backend pass -> per-layer metric stem; the six are also split by machine.
static const std::vector<std::pair<std::string, std::string>> kBackendPasses = {
    {"build-dag", "sched.build-dag"},
    {"prepass-sched", "sched.prepass-sched"},
    {"rase-probe", "sched.rase-probe"},
    {"postpass-sched", "sched.postpass-sched"},
    {"allocate", "regalloc.allocate"},
    {"frame-lower", "strategy.frame-lower"},
};

std::string passMetric(const std::string &Pass) {
  if (Pass == "glue" || Pass == "select")
    return "select." + Pass;
  for (const auto &P : kBackendPasses)
    if (P.first == Pass)
      return P.second;
  return "pass." + Pass;
}

bool isBackendPass(const std::string &Pass) {
  for (const auto &P : kBackendPasses)
    if (P.first == Pass)
      return true;
  return false;
}

/// Per-layer metrics in four groups: the compile layers, the simulator,
/// the daemon's request path, and the two every traced run reports.
static std::vector<MetricSpec> compileLayerMetrics() {
  std::vector<MetricSpec> V = {
      {"frontend.ms", "ms", "lower"},
      {"select.glue.ms", "ms", "lower"},
      {"select.select.ms", "ms", "lower"},
  };
  for (const auto &P : kBackendPasses)
    V.push_back({P.second + ".ms", "ms", "lower"});
  for (const auto &P : kBackendPasses)
    for (const std::string &Mach : kMachines)
      V.push_back({P.second + ".ms." + Mach, "ms", "lower"});
  std::vector<MetricSpec> Rest = {
      {"target.emit.ms", "ms", "lower"},
      {"driver.other.ms", "ms", "lower"},
      {"select.probes_per_node", "ratio", "lower"},
      {"select.instrs_out", "instrs", "lower"},
      {"sched.dag_nodes", "count", "lower"},
      {"sched.dag_edges", "count", "lower"},
      {"sched.scheduled_instrs", "instrs", "lower"},
      {"regalloc.spilled_pseudos", "count", "lower"},
      {"regalloc.rounds", "count", "lower"},
  };
  V.insert(V.end(), Rest.begin(), Rest.end());
  return V;
}

static std::vector<MetricSpec> simLayerMetrics() {
  std::vector<MetricSpec> V;
  for (const std::string &Mach : kMachines)
    V.push_back({"sim.ns_per_instr." + Mach, "ns/instr", "lower"});
  std::vector<MetricSpec> Rest = {
      {"sim.interpret_share", "ratio", "lower"},
      {"sim.instrs", "instrs", "lower"},
      {"sim.issue_cycles", "cycles", "lower"},
      {"sim.nops", "instrs", "lower"},
      {"sim.stall.branch", "cycles", "lower"},
      {"sim.stall.interlock", "cycles", "lower"},
      {"sim.stall.memory", "cycles", "lower"},
      {"sim.stall.resource", "cycles", "lower"},
      {"sched.estimated_cycles", "cycles", "lower"},
  };
  V.insert(V.end(), Rest.begin(), Rest.end());
  return V;
}

std::vector<MetricSpec> daemonLayerMetrics() {
  return {
      {"service.queue_ms.p50", "ms", "lower"},
      {"service.compile_ms.p50", "ms", "lower"},
      {"service.compile_ms.p99", "ms", "lower"},
      {"service.post_compile_ms.p50", "ms", "lower"},
      {"wire.client_ms.p50", "ms", "lower"},
      {"class.unchanged.latency_ms.p50", "ms", "lower"},
      {"class.switch.latency_ms.p50", "ms", "lower"},
      {"class.edit.latency_ms.p50", "ms", "lower"},
      {"cache.hit_share", "ratio", "higher"},
      {"cache.evictions", "count", "lower"},
      {"service.rejected", "count", "lower"},
      {"service.max_queue_depth", "count", "lower"},
      {"hit_replay.frontend_ms", "ms", "lower"},
      {"hit_replay.fingerprint_ms", "ms", "lower"},
  };
}

static std::vector<MetricSpec> runLayerMetrics() {
  return {
      {"trace.overhead_ratio", "ratio", "lower"},
      {"host.calib_ms", "ms", "lower"},
  };
}

const std::vector<MetricSpec> &perLayerMetrics() {
  static const std::vector<MetricSpec> M = [] {
    std::vector<MetricSpec> V;
    for (const auto &Group : {compileLayerMetrics(), simLayerMetrics(),
                              daemonLayerMetrics(), runLayerMetrics()})
      V.insert(V.end(), Group.begin(), Group.end());
    return V;
  }();
  return M;
}

std::set<std::string> ownedLayerMetrics(const std::string &Workload) {
  // Every workload compiles (timed ops, set-up compiles or reference
  // compiles) and simulates (timed ops or output checks); daemon_edit_mix
  // and compile_cold's traced run, which replays it, have a daemon.
  std::vector<std::vector<MetricSpec>> Groups = {
      compileLayerMetrics(), simLayerMetrics(), runLayerMetrics()};
  if (Workload == "daemon_edit_mix" || Workload == "compile_cold")
    Groups.push_back(daemonLayerMetrics());
  std::set<std::string> Names;
  for (const auto &Group : Groups)
    for (const MetricSpec &S : Group)
      Names.insert(S.Name);
  return Names;
}

//===-- Spans ---------------------------------------------------------------==//

Tracer::Tracer(bool Enabled)
    : Enabled(Enabled), Origin(Clock::now()), OriginMicros(obs::wallMicros()) {}

void Tracer::record(std::string Name, const char *Cat, unsigned Tid,
                    Clock::time_point Start, Clock::time_point End,
                    std::string Args) {
  if (!Enabled)
    return;
  obs::TraceEvent E;
  E.Cat = Cat;
  E.Name = std::move(Name);
  E.TsMicros = OriginMicros + msBetween(Origin, Start) * 1000.0;
  E.DurMicros = msBetween(Start, End) * 1000.0;
  E.Tid = Tid;
  E.Args = std::move(Args);
  std::lock_guard<std::mutex> Lock(Mutex);
  Events.push_back(std::move(E));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Events.size();
}

bool Tracer::write(const std::string &Path, std::string &Error) const {
  std::string Json;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Json = obs::assembleTraceJson(
        {{static_cast<int>(::getpid()), "marionbench",
          obs::serializeFragment(Events)}});
  }
  std::ofstream Out(Path, std::ios::trunc);
  Out << Json;
  Out.close();
  if (!Out) {
    Error = "cannot write trace '" + Path + "'";
    return false;
  }
  return true;
}

SpanArgs &SpanArgs::str(const char *Key, const std::string &Value) {
  Body += std::string(Body.empty() ? "" : ",") + "\"" + Key + "\":\"" +
          obs::jsonEscape(Value) + "\"";
  return *this;
}

SpanArgs &SpanArgs::num(const char *Key, double Value) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%.12g", Value);
  Body += std::string(Body.empty() ? "" : ",") + "\"" + Key + "\":" + Buf;
  return *this;
}

//===-- Cells ---------------------------------------------------------------==//

const std::vector<std::string> kFiles = {"livermore", "suite_matmul",
                                         "suite_poly", "suite_queens"};
const std::vector<std::string> kMachines = {"toyp", "r2000", "m88000", "i860"};
const std::vector<StrategyKind> kStrategies = {
    StrategyKind::Postpass, StrategyKind::IPS, StrategyKind::RASE};

std::string Cell::name() const {
  return File + "/" + Machine + "/" + strategy::strategyName(Strategy);
}

const std::vector<Cell> &matrixCells() {
  static const std::vector<Cell> V = [] {
    std::vector<Cell> V;
    for (const std::string &F : kFiles)
      for (const std::string &M : kMachines)
        for (StrategyKind K : kStrategies)
          V.push_back({F, M, K});
    return V;
  }();
  return V;
}

const std::vector<Cell> &cleanCells() {
  static const std::vector<Cell> V = [] {
    std::vector<Cell> V;
    for (const Cell &C : matrixCells())
      if (expectedFailures(C).empty())
        V.push_back(C);
    return V;
  }();
  return V;
}

const std::vector<std::string> &expectedFailures(const Cell &C) {
  // toyp has no integer multiply or divide, so every function that needs
  // one has no selectable pattern; under IPS toyp/livermore's main also
  // fails. m88000 cannot select suite_poly's main. Everything else
  // compiles.
  static const std::vector<std::string> None;
  static const std::vector<std::string> ToypLivermore = {
      "k2", "k4", "k6", "k8", "k9", "k10", "k13", "k14"};
  static const std::vector<std::string> ToypLivermoreIPS = {
      "k2", "k4", "k6", "k8", "k9", "k10", "k13", "k14", "main"};
  static const std::vector<std::string> ToypMatmul = {"fill", "matmul",
                                                      "main"};
  static const std::vector<std::string> ToypPoly = {"horner", "recurrence",
                                                    "main"};
  static const std::vector<std::string> MainOnly = {"main"};
  if (C.Machine == "toyp") {
    if (C.File == "livermore")
      return C.Strategy == StrategyKind::IPS ? ToypLivermoreIPS
                                             : ToypLivermore;
    if (C.File == "suite_matmul")
      return ToypMatmul;
    if (C.File == "suite_poly")
      return ToypPoly;
  }
  if (C.Machine == "m88000" && C.File == "suite_poly")
    return MainOnly;
  return None;
}

const std::string &sourceOf(const std::string &File) {
  static std::mutex Mutex;
  static std::map<std::string, std::string> Sources;
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Sources.find(File);
  if (It != Sources.end())
    return It->second;
  std::string Text, Error;
  if (!readFile(workloadDir() + "/" + File + ".mc", Text, Error)) {
    std::fprintf(stderr, "marionbench: %s\n", Error.c_str());
    std::exit(2);
  }
  return Sources.emplace(File, std::move(Text)).first->second;
}

service::CompileRequest requestFor(const Cell &C, const std::string &Source) {
  service::CompileRequest Req;
  Req.Path = C.path();
  Req.Source = Source;
  Req.Opts.Machine = C.Machine;
  Req.Opts.Strategy = C.Strategy;
  Req.Opts.Jobs = 1;
  return Req;
}

bool buildTargetsFresh() {
  for (const std::string &M : kMachines) {
    DiagnosticEngine Diags;
    if (!target::TargetBuilder::loadMachine(M, Diags))
      return false;
  }
  return true;
}

uint64_t staticInstrs(const driver::Compilation &C) {
  uint64_t N = 0;
  for (const target::MFunction &Fn : C.Module.Functions)
    N += Fn.instrCount();
  return N;
}

} // namespace mb
