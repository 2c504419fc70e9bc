//===- Bench.h - Shared pieces of the repository benchmark ------*- C++ -*-==//
//
// Internal to the marionbench harness: seeded generators, statistics, the
// metric catalog, the in-memory span recorder, the cell matrix, the
// harness-driven (traced) compile path, the checked simulation stage, the
// literal-edit generator and the three workload entry points.
//
//===----------------------------------------------------------------------===//

#ifndef MARIONBENCH_BENCH_H
#define MARIONBENCH_BENCH_H

#include "driver/Compiler.h"
#include "obs/Trace.h"
#include "service/CompileService.h"
#include "sim/Simulator.h"
#include "strategy/Strategy.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace mb {

using Clock = std::chrono::steady_clock;
using marion::strategy::StrategyKind;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

//===-- Seeded generator ---------------------------------------------------==//

/// splitmix64: the benchmark's only source of randomness, so one --seed
/// fixes every order, draw and edit of a run.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

//===-- Statistics and host probes -----------------------------------------==//

/// Nearest-rank percentile (P in (0, 1]) of \p V; NaN for an empty sample,
/// which the run reports as a missing value.
double percentile(std::vector<double> V, double P);
double sum(const std::vector<double> &V);
double mean(const std::vector<double> &V);
/// The fastest third of one cell's repeated timings (the ceil(n/3)
/// smallest). On a shared VM, co-tenants can slow every core 2-3x for a
/// fraction of a second every few seconds, so a short op reads either its
/// normal time or a multiple of it. The fastest third drops those reads as
/// long as the bursts cover less than two thirds of the run; the median
/// alone flips between the two modes.
std::vector<double> fastestThird(std::vector<double> V);
/// 64-bit FNV-1a, the digest every output comparison uses.
uint64_t digest(const std::string &S);
/// Wall time of a fixed integer loop that never touches Marion code: tells
/// a slow-host run from a regression.
double hostCalibMs();
/// Steps of one probe chunk: a dependent-load walk over a 256 KiB table in
/// a fixed random order, about 0.55 ms. It never runs Marion code.
constexpr unsigned kProbeSteps = 50'000;
/// Runs \p Chunks probe chunks and records each one's time. With 0, runs
/// one chunk unless this thread ran one in the last 10 ms. Call it between
/// ops, never inside one.
void probeHost(unsigned Chunks = 0);
/// Every chunk time recorded so far, in ms.
std::vector<double> probeTimes();
/// The probe chunk's time at the reference host speed that end-to-end
/// timings are reported at.
constexpr double kProbeRefMs = 0.55;
/// kProbeRefMs / the mean of the fastest third of the run's probe chunks
/// (NaN without probes). Times multiplied by it, and rates divided by it,
/// read as at the reference host speed: a run on a host that is slower
/// throughout, for example because co-tenants take the CPUs' shared
/// resources, reads about the same as one on a faster host. The probe
/// never runs Marion code, so a change to the program moves the timings
/// and not the scale.
double hostScale();
/// Moves the calling thread to the next CPU it may run on, round robin, at
/// most every 200 ms (a move costs the next op its warm caches). The host's
/// cores slow down independently of each other for seconds at a time: a
/// caller that stays on one core measures that core's luck, one that visits
/// every core in turn measures their average. Call it only from a thread
/// that starts no other threads; those would inherit its one-CPU mask.
void nextCpu();
/// Lets the calling thread run on every CPU again.
void allCpus();
/// Peak resident set of this process, in MiB.
double peakRssMiB();

//===-- Results and the metric catalog --------------------------------------==//

struct MetricSpec {
  std::string Name;
  std::string Unit;
  std::string Better;
};

/// End-to-end metrics, printed by every run with --trace 0.
const std::vector<MetricSpec> &endToEndMetrics();
/// Per-layer metrics, printed by every run with --trace 1.
const std::vector<MetricSpec> &perLayerMetrics();
/// The per-layer metrics \p Workload produces. A traced run fails when one
/// of them has no value; the others belong to layers the workload bypasses
/// and read 0.
std::set<std::string> ownedLayerMetrics(const std::string &Workload);
/// The daemon's request-path metrics, a subset of perLayerMetrics().
std::vector<MetricSpec> daemonLayerMetrics();

/// What one run reports. Every op attempted counts, and a failed check
/// counts it as failed; nothing is dropped.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Run-level checks (determinism, ledgers, closure) that are not ops.
  std::vector<std::string> Problems;
  std::map<std::string, double> Values;

  void set(const std::string &Name, double V) { Values[Name] = V; }
  void problem(std::string Why) { Problems.push_back(std::move(Why)); }
  void op(bool Ok) {
    ++Attempted;
    if (!Ok)
      ++Failed;
  }
  bool correct() const { return Failed == 0 && Problems.empty(); }
};

//===-- Spans ---------------------------------------------------------------==//

/// In-memory span recorder around the harness's calls into each layer.
/// It keeps its own list rather than arming the process-wide collector, so
/// the library's own spans stay off. Disabled (every call a no-op) in
/// untraced runs; written out once at the end as a Chrome trace.
class Tracer {
public:
  explicit Tracer(bool Enabled);
  bool enabled() const { return Enabled; }
  void record(std::string Name, const char *Cat, unsigned Tid,
              Clock::time_point Start, Clock::time_point End,
              std::string Args = {});
  bool write(const std::string &Path, std::string &Error) const;
  size_t size() const;

private:
  bool Enabled;
  Clock::time_point Origin;
  double OriginMicros; ///< obs::wallMicros() at Origin.
  mutable std::mutex Mutex; ///< Guards Events (daemon client threads).
  std::vector<marion::obs::TraceEvent> Events;
};

/// A span's args object; string values are JSON-escaped.
class SpanArgs {
public:
  SpanArgs &str(const char *Key, const std::string &Value);
  SpanArgs &num(const char *Key, double Value);
  std::string json() const { return Body.empty() ? "" : "{" + Body + "}"; }

private:
  std::string Body;
};

//===-- The cell matrix -----------------------------------------------------==//

extern const std::vector<std::string> kFiles;    ///< Workload stems.
extern const std::vector<std::string> kMachines; ///< Bundled machines.
extern const std::vector<StrategyKind> kStrategies;

struct Cell {
  std::string File;
  std::string Machine;
  StrategyKind Strategy;
  std::string path() const { return File + ".mc"; }
  std::string name() const;
};

/// All 48 cells: 4 files x 4 machines x 3 strategies.
const std::vector<Cell> &matrixCells();
/// The 36 cells that compile completely (12 file x machine pairs).
const std::vector<Cell> &cleanCells();
/// The hand-written table of functions a cell fails by design.
const std::vector<std::string> &expectedFailures(const Cell &C);
/// Workload source text, read once.
const std::string &sourceOf(const std::string &File);
/// A compile request for \p C with \p Source passed by value, Jobs = 1.
marion::service::CompileRequest requestFor(const Cell &C,
                                           const std::string &Source);
/// Builds all four machines' tables from their descriptions, bypassing the
/// driver's resident target cache; returns false on any error.
bool buildTargetsFresh();
/// The per-layer metric stem of a pipeline pass ("allocate" ->
/// "regalloc.allocate"), and whether it is one of the six backend passes
/// that are also reported per machine.
std::string passMetric(const std::string &Pass);
bool isBackendPass(const std::string &Pass);
/// Static machine instructions in a compiled module.
uint64_t staticInstrs(const marion::driver::Compilation &C);

//===-- Harness-driven compile path (the traced run) ------------------------==//

/// Per-layer accumulators over the compiles the harness drove itself.
struct CompileLayers {
  uint64_t Ops = 0;
  double OpMs = 0;
  std::map<std::string, double> Ms; ///< Layer metric name -> total ms.
  std::map<std::string, uint64_t> MachineOps;
  uint64_t NodesMatched = 0, PatternsProbed = 0, SelectInstrs = 0;
  marion::strategy::StrategyStats Stats;
  void report(RunResult &R) const;
};

struct CompileOutcome {
  std::vector<std::string> Failed;
  std::string Assembly;
  std::optional<marion::driver::Compilation> C;
  double Ms = 0;
};

/// Compiles \p Source for \p Cell through the serial driver path called
/// step by step (frontend, lowerGlobals, each registered pass's Run over a
/// FunctionState, assembly), timing each public call. Produces the same
/// assembly as CompileService with the cache off and Jobs = 1.
CompileOutcome tracedCompile(const Cell &C, const std::string &Source,
                             Tracer &T, CompileLayers &L);

//===-- Checked simulation --------------------------------------------------==//

struct SimLayers {
  uint64_t Instrs = 0, Cycles = 0, IssueCycles = 0, Nops = 0;
  uint64_t Branch = 0, Interlock = 0, Memory = 0, Resource = 0;
  uint64_t Estimated = 0;
  double TimedMs = 0, FunctionalMs = 0;
  std::map<std::string, std::pair<uint64_t, double>> Machine; ///< instrs, ms
  void report(RunResult &R) const;
};

/// Runs main() of \p C with the default timing model; true when the run
/// is Ok, main returns 1 and the stall ledger closes. \p Ms is its time.
bool checkedSim(const marion::driver::Compilation &C,
                marion::sim::SimResult &Out, double &Ms, std::string &Why);

/// The reference stage: simulates each compiled clean cell once, checking
/// it; adds totals to \p L and, when traced, a functional-only pass for
/// sim.interpret_share. Returns which cells passed.
std::vector<bool> simulateReference(
    const std::vector<std::pair<Cell, const marion::driver::Compilation *>>
        &Cells,
    Tracer &T, SimLayers &L);

//===-- Literal edits -------------------------------------------------------==//

/// An integer literal inside a function body.
struct LiteralSite {
  size_t Offset = 0, Length = 0;
  std::string Function;
};
std::vector<LiteralSite> literalSites(const std::string &Source);
std::string applyEdit(const std::string &Source, const LiteralSite &Site,
                      long Delta);

//===-- Daemon op sequences -------------------------------------------------==//

enum class OpClass { Unchanged, Switch, Edit };
const char *className(OpClass K);

struct DaemonOp {
  OpClass Class = OpClass::Unchanged;
  unsigned CellIndex = 0; ///< Into cleanCells(): the file x machine pair.
  StrategyKind Strategy = StrategyKind::Postpass;
  std::shared_ptr<const std::string> Source;
  std::string EditedFunction; ///< Edit and switch ops.
};

/// One client's ops in \p Rounds rounds of the same multiset, each
/// shuffled: per clean cell, \p Unchanged repeats and one new edit, re-sent
/// later in the round under another strategy. A round is
/// cleanCells().size() * (Unchanged + 2) ops. Same (seed, client) => same
/// sequence.
std::vector<DaemonOp> daemonSequence(uint64_t Seed, unsigned Client,
                                     unsigned Unchanged, unsigned Rounds);

//===-- Workloads -----------------------------------------------------------==//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".bench_build/run"; ///< Sockets, logs, traces.
};

/// Repetitions of set-up per run; setup_s is their median.
constexpr unsigned kSetupReps = 5;
/// The median of \p SetupS, printed with every repetition beside it.
double setupMedian(const std::vector<double> &SetupS);

RunResult runCompileCold(const Options &O, Tracer &T);
RunResult runSimulateSuite(const Options &O, Tracer &T);
RunResult runDaemonEditMix(const Options &O, Tracer &T);
/// Runs a short traced daemon_edit_mix (two rounds) and adds its ops,
/// problems and daemon metrics to \p R: compile_cold's traced run measures
/// the daemon's layers this way.
void traceDaemonLayers(const Options &O, Tracer &T, RunResult &R);
int runSelfTest(const Options &O);

} // namespace mb

#endif // MARIONBENCH_BENCH_H
