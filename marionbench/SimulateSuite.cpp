//===- SimulateSuite.cpp - The simulate_suite workload --------------------==//
//
// Set-up compiles the 36 clean cells; an op is one sim::runProgram of a
// cell's main with the default timing model, from one caller. All timed
// work is in the simulator, so a scheduler speed-up must not move the
// timings, while code.cycles guards the quality of the emitted code.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "service/CompileService.h"

using namespace marion;

namespace mb {

RunResult runSimulateSuite(const Options &O, Tracer &T) {
  RunResult R;
  const std::vector<Cell> &Cells = cleanCells();
  // Each pass runs every cell once and suite_poly's cells twice. The
  // weighting moves p50 from the boundary between the poly and matmul
  // latency clusters (one pass of 36 puts it exactly there) into the poly
  // cluster; p90 sits inside the livermore cluster either way.
  std::vector<unsigned> PassOps;
  for (unsigned I = 0; I < Cells.size(); ++I) {
    PassOps.push_back(I);
    if (Cells[I].File == "suite_poly")
      PassOps.push_back(I);
  }
  // (S+3)/4 passes keep three timings per cell (five of suite_poly's) at
  // S = 25 (see fastestThird): 120 samples, twelve of them beyond p90.
  const unsigned Passes = std::max(3u, (O.Seconds + 3) / 4);
  Rng Rand(O.Seed);

  std::vector<std::optional<driver::Compilation>> Comp(Cells.size());
  std::vector<uint64_t> RefDigest(Cells.size(), 0);
  std::unique_ptr<service::CompileService> Svc;
  // Compiles the 36 cells with \p S (keeping the modules when asked, adding
  // each cell's compile time to \p Ms when given); every compile after the
  // first must reproduce its assembly.
  std::vector<std::vector<double>> CompileMs(Cells.size());
  auto compileAll = [&](service::CompileService &S, bool Keep,
                        std::vector<std::vector<double>> *Ms) {
    for (unsigned I = 0; I < Cells.size(); ++I) {
      std::optional<driver::Compilation> Kept;
      nextCpu();
      probeHost();
      const Clock::time_point T0 = Clock::now();
      service::CompileResult Res =
          S.compile(requestFor(Cells[I], sourceOf(Cells[I].File)),
                    Keep ? &Kept : nullptr);
      if (Ms)
        (*Ms)[I].push_back(msBetween(T0, Clock::now()));
      const uint64_t D = digest(Res.Assembly);
      if (!Res.Ok || (Keep && !Kept) || (RefDigest[I] && D != RefDigest[I]))
        R.problem("compile of " + Cells[I].name() + " failed or changed");
      RefDigest[I] = D;
      if (Keep)
        Comp[I] = std::move(Kept);
    }
  };

  // Set-up: fresh table builds, a new service, the 36 compiles, and an
  // untimed warm-up simulation of the small suite_queens cells. The first
  // repetition keeps its service and modules for the timed region; the
  // others run between passes, spread over the run, so that setup_s samples
  // the host's speed across the run rather than in its first seconds.
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
    compileAll(*Fresh, First, nullptr);
    for (unsigned I = 0; I < Cells.size(); ++I)
      if (Cells[I].File == "suite_queens" && Comp[I]) {
        nextCpu();
        sim::SimResult SR;
        double Ms = 0;
        std::string Why;
        if (!checkedSim(*Comp[I], SR, Ms, Why))
          R.problem("warm-up " + Cells[I].name() + ": " + Why);
      }
    SetupS.push_back(msBetween(T0, Clock::now()) / 1000.0);
    if (First)
      Svc = std::move(Fresh);
    return R.Problems.empty();
  };
  if (!setUp())
    return R;
  CompileLayers Layers;
  if (T.enabled())
    for (unsigned I = 0; I < Cells.size(); ++I) {
      CompileOutcome TO =
          tracedCompile(Cells[I], sourceOf(Cells[I].File), T, Layers);
      if (!TO.Failed.empty() || digest(TO.Assembly) != RefDigest[I])
        R.problem("traced compile of " + Cells[I].name() +
                  " differs from CompileService");
    }

  // Timed region. The first run of a cell fixes its reference counts; every
  // later run must reproduce them exactly.
  std::vector<std::vector<double>> CellMs(Cells.size());
  std::vector<std::optional<std::pair<uint64_t, uint64_t>>> Ref(Cells.size());
  for (unsigned P = 0; P < Passes; ++P) {
    std::vector<unsigned> Order = PassOps;
    Rand.shuffle(Order);
    for (unsigned I : Order) {
      sim::SimResult SR;
      double Ms = 0;
      std::string Why;
      nextCpu();
      probeHost();
      bool Ok = checkedSim(*Comp[I], SR, Ms, Why);
      CellMs[I].push_back(Ms);
      std::pair<uint64_t, uint64_t> Counts{SR.Instructions, SR.Cycles};
      if (!Ref[I])
        Ref[I] = Counts;
      R.op(Ok && *Ref[I] == Counts);
    }
    // Between passes, outside every op's timing: recompile the cells, so
    // compiled_instrs_per_s averages over the host's speed across the run,
    // and repeat set-up.
    compileAll(*Svc, false, &CompileMs);
    while (SetupS.size() < 1 + (kSetupReps - 1) * (P + 1) / Passes)
      if (!setUp())
        return R;
  }

  if (T.enabled()) {
    std::vector<std::pair<Cell, const driver::Compilation *>> All;
    double UntracedPassMs = 0;
    for (unsigned I = 0; I < Cells.size(); ++I) {
      All.push_back({Cells[I], &*Comp[I]});
      UntracedPassMs += sum(CellMs[I]) / static_cast<double>(CellMs[I].size());
    }
    SimLayers Sim;
    for (bool Ok : simulateReference(All, T, Sim))
      R.op(Ok);
    Layers.report(R);
    Sim.report(R);
    R.set("trace.overhead_ratio", Sim.TimedMs / UntracedPassMs - 1.0);
    return R;
  }
  // Each cell ran once per pass (suite_poly's twice); the fastest third of
  // those timings stands for it (see fastestThird). Latency percentiles are
  // over the pooled thirds, throughput is that of a pass at each cell's
  // fastest-third mean; the recompiles between passes likewise.
  uint64_t StaticInstrs = 0, Cycles = 0, PassInstrs = 0;
  double PassS = 0, CompileS = 0;
  std::vector<double> Kept;
  for (unsigned I = 0; I < Cells.size(); ++I) {
    StaticInstrs += staticInstrs(*Comp[I]);
    Cycles += Ref[I]->second;
    CompileS += mean(fastestThird(CompileMs[I])) / 1000.0;
    const std::vector<double> Fast = fastestThird(CellMs[I]);
    Kept.insert(Kept.end(), Fast.begin(), Fast.end());
  }
  for (unsigned I : PassOps) {
    PassInstrs += Ref[I]->first;
    PassS += mean(fastestThird(CellMs[I])) / 1000.0;
  }
  R.set("setup_s", setupMedian(SetupS));
  R.set("latency_ms.p50", percentile(Kept, 0.50));
  R.set("latency_ms.p90", percentile(Kept, 0.90));
  R.set("latency_ms.p99", percentile(Kept, 0.99));
  R.set("ops_per_s", static_cast<double>(PassOps.size()) / PassS);
  R.set("compiled_instrs_per_s", static_cast<double>(StaticInstrs) / CompileS);
  R.set("sim_instrs_per_s", static_cast<double>(PassInstrs) / PassS);
  R.set("code.static_instrs", static_cast<double>(StaticInstrs));
  R.set("code.cycles", static_cast<double>(Cycles));
  return R;
}

} // namespace mb
