//===- CompileCold.cpp - The compile_cold workload ------------------------==//
//
// One caller compiles cells of the 4 files x 4 machines x 3 strategies
// matrix through an in-process CompileService with the cache off and
// Jobs = 1, and renders each cell's assembly. Every backend layer does real
// work; the cache, the wire and the simulator are bypassed (the simulator
// only checks outputs, outside the timed region). The traced run also
// replays a short daemon_edit_mix, so that the daemon's request-path layers
// are measured on a workload BENCHMARK.json lists.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "service/CompileService.h"

#include <numeric>

using namespace marion;

namespace mb {

RunResult runCompileCold(const Options &O, Tracer &T) {
  RunResult R;
  const std::vector<Cell> &Cells = matrixCells();
  // 5S/2 passes keep 21 timings per cell at S = 25 (see fastestThird):
  // 1008 samples, ten of them beyond p99. A traced run compiles every op
  // twice and needs no tail, so it makes a fifth of the passes.
  const unsigned Passes =
      std::max(3u, (T.enabled() ? 1 : 5) * O.Seconds / 2);
  Rng Rand(O.Seed);
  auto seededOrder = [&] {
    std::vector<unsigned> Idx(Cells.size());
    std::iota(Idx.begin(), Idx.end(), 0u);
    Rand.shuffle(Idx);
    return Idx;
  };

  // Set-up: fresh table builds for all four machines, a new service, and an
  // untimed warm-up pass over the matrix. The first repetition keeps its
  // service and modules for the timed region; the others run between
  // passes, spread over the run, so that setup_s samples the host's speed
  // across the run rather than in its first seconds. Every repetition must
  // reproduce the first one's assembly.
  std::unique_ptr<service::CompileService> Svc;
  std::vector<uint64_t> RefDigest(Cells.size()), RefInstrs(Cells.size());
  std::vector<std::optional<driver::Compilation>> Ref(Cells.size());
  std::vector<double> SetupS;
  auto setUp = [&] {
    const bool First = SetupS.empty();
    nextCpu();
    const Clock::time_point T0 = Clock::now();
    if (!buildTargetsFresh()) {
      R.problem("a machine description failed to build");
      return false;
    }
    service::CompileService::Config Cfg;
    Cfg.WarmMachines = kMachines;
    auto Fresh = std::make_unique<service::CompileService>(Cfg);
    for (unsigned I : seededOrder()) {
      nextCpu();
      probeHost();
      std::optional<driver::Compilation> Keep;
      service::CompileResult Res = Fresh->compile(
          requestFor(Cells[I], sourceOf(Cells[I].File)), &Keep);
      if (!Keep) {
        R.problem("no module for " + Cells[I].name());
        return false;
      }
      const uint64_t D = digest(Res.Assembly);
      if (First) {
        RefDigest[I] = D;
        RefInstrs[I] = staticInstrs(*Keep);
        Ref[I] = std::move(Keep);
      } else if (D != RefDigest[I]) {
        R.problem("assembly of " + Cells[I].name() +
                  " differs between set-ups");
      }
    }
    SetupS.push_back(msBetween(T0, Clock::now()) / 1000.0);
    if (First)
      Svc = std::move(Fresh);
    return true;
  };
  if (!setUp())
    return R;

  // Each clean cell's self-checking main must return 1, or every op of the
  // cell fails. These check simulations run between passes, outside every
  // op's timing, spread over the run: kSimRounds rounds over the clean
  // cells, the first of which also gives the per-layer counts.
  // sim_instrs_per_s takes each cell's fastest round.
  constexpr size_t kSimRounds = 2;
  std::vector<std::pair<Cell, const driver::Compilation *>> Clean;
  std::vector<unsigned> CleanIndex;
  for (unsigned I = 0; I < Cells.size(); ++I)
    if (expectedFailures(Cells[I]).empty()) {
      Clean.push_back({Cells[I], &*Ref[I]});
      CleanIndex.push_back(I);
    }
  std::vector<bool> CellOk(Cells.size(), true);
  std::vector<std::vector<double>> SimMs(Clean.size());
  SimLayers Sim;
  size_t NextSim = 0;
  auto simulateUpTo = [&](size_t End) {
    for (; NextSim < End; ++NextSim) {
      const size_t K = NextSim % Clean.size();
      bool Ok;
      double Ms = 0;
      if (NextSim < Clean.size()) {
        const double Before = Sim.TimedMs;
        Ok = simulateReference({Clean[K]}, T, Sim)[0];
        Ms = Sim.TimedMs - Before;
      } else {
        sim::SimResult SR;
        std::string Why;
        nextCpu();
        probeHost();
        Ok = checkedSim(*Clean[K].second, SR, Ms, Why);
      }
      SimMs[K].push_back(Ms);
      CellOk[CleanIndex[K]] = CellOk[CleanIndex[K]] && Ok;
    }
  };

  // Timed region: Passes x the full matrix, each pass in a seeded order.
  std::vector<double> Lat;
  std::vector<std::vector<double>> CellLat(Cells.size());
  std::vector<std::pair<unsigned, bool>> OpOk; // (cell, output check)
  CompileLayers Layers;
  for (unsigned P = 0; P < Passes; ++P) {
    for (unsigned I : seededOrder()) {
      const Cell &C = Cells[I];
      nextCpu();
      probeHost();
      const Clock::time_point T0 = Clock::now();
      service::CompileResult Res = Svc->compile(requestFor(C, sourceOf(C.File)));
      Lat.push_back(msBetween(T0, Clock::now()));
      CellLat[I].push_back(Lat.back());
      const std::vector<std::string> &Expected = expectedFailures(C);
      OpOk.push_back({I, Res.FailedFunctions == Expected &&
                             Res.Ok == Expected.empty() &&
                             digest(Res.Assembly) == RefDigest[I]});
      if (T.enabled()) {
        CompileOutcome TO = tracedCompile(C, sourceOf(C.File), T, Layers);
        if (TO.Failed != Expected || digest(TO.Assembly) != RefDigest[I])
          R.problem("traced compile of " + C.name() +
                    " differs from CompileService");
      }
    }
    simulateUpTo(kSimRounds * Clean.size() * (P + 1) / Passes);
    while (SetupS.size() < 1 + (kSetupReps - 1) * (P + 1) / Passes)
      if (!setUp())
        return R;
  }
  for (const auto &[I, Ok] : OpOk)
    R.op(Ok && CellOk[I]);

  if (T.enabled()) {
    Layers.report(R);
    Sim.report(R);
    R.set("trace.overhead_ratio", Layers.OpMs / sum(Lat) - 1.0);
    traceDaemonLayers(O, T, R);
    return R;
  }
  // Each cell ran once per pass; the fastest third of those timings stands
  // for it (see fastestThird). Latency percentiles are over the pooled
  // thirds, throughput is that of a pass at each cell's fastest-third mean.
  uint64_t StaticInstrs = 0;
  double PassS = 0;
  std::vector<double> Kept;
  for (unsigned I = 0; I < Cells.size(); ++I) {
    StaticInstrs += RefInstrs[I];
    const std::vector<double> Fast = fastestThird(CellLat[I]);
    Kept.insert(Kept.end(), Fast.begin(), Fast.end());
    PassS += mean(Fast) / 1000.0;
  }
  R.set("setup_s", setupMedian(SetupS));
  R.set("latency_ms.p50", percentile(Kept, 0.50));
  R.set("latency_ms.p90", percentile(Kept, 0.90));
  R.set("latency_ms.p99", percentile(Kept, 0.99));
  R.set("ops_per_s", static_cast<double>(Cells.size()) / PassS);
  R.set("compiled_instrs_per_s", static_cast<double>(StaticInstrs) / PassS);
  double SimS = 0;
  for (const std::vector<double> &Ms : SimMs)
    SimS += mean(fastestThird(Ms)) / 1000.0;
  R.set("sim_instrs_per_s", static_cast<double>(Sim.Instrs) / SimS);
  R.set("code.static_instrs", static_cast<double>(StaticInstrs));
  R.set("code.cycles", static_cast<double>(Sim.Cycles));
  return R;
}

} // namespace mb
