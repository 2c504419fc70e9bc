//===- Layers.cpp - Harness-driven compile path and checked simulation ----==//

#include "Bench.h"

#include "frontend/Frontend.h"
#include "pipeline/Passes.h"
#include "select/Selector.h"
#include "support/Recovery.h"
#include "target/FuncEscape.h"

using namespace marion;

namespace mb {

namespace {

/// Records one timed call as a span and into the layer totals.
struct LayerClock {
  Tracer &T;
  CompileLayers &L;
  const Cell &C;
  const std::string Args;

  void add(const std::string &Metric, const std::string &SpanName,
           Clock::time_point Start, Clock::time_point End) {
    double Ms = msBetween(Start, End);
    L.Ms[Metric + ".ms"] += Ms;
    if (isBackendPass(SpanName))
      L.Ms[Metric + ".ms." + C.Machine] += Ms;
    T.record(SpanName, "compile", 0, Start, End, Args);
  }
};

} // namespace

CompileOutcome tracedCompile(const Cell &C, const std::string &Source,
                             Tracer &T, CompileLayers &L) {
  CompileOutcome Out;
  LayerClock LC{T, L, C, SpanArgs().str("cell", C.name()).json()};
  const Clock::time_point OpStart = Clock::now();

  DiagnosticEngine Diags;
  Diags.setFile(C.path());
  Clock::time_point T0 = Clock::now();
  std::unique_ptr<il::Module> Mod =
      frontend::compileSource(Source, C.File, Diags);
  LC.add("frontend", "frontend", T0, Clock::now());
  auto Target = driver::loadTarget(C.Machine, Diags);
  if (!Mod || !Target) {
    Out.Failed.push_back("<module>");
    return Out;
  }
  target::registerStandardEscapes();

  driver::Compilation Comp;
  Comp.Target = Target;
  Comp.Module.Name = Mod->Name;
  select::lowerGlobals(*Mod, Comp.Module);
  Comp.Module.Functions.resize(Mod->Functions.size());

  std::vector<pipeline::Pass> Passes;
  for (const pipeline::Pass &P : pipeline::fullPipeline(C.Strategy))
    Passes.push_back(*pipeline::createPassByName(P.Name));

  const target::SelectionCounters::Snapshot Before =
      Target->counters().snapshot();
  for (size_t I = 0; I < Mod->Functions.size(); ++I) {
    DiagnosticEngine FnDiags;
    FnDiags.setFile(Diags.file());
    pipeline::FunctionState FS;
    FS.ILFn = Mod->Functions[I].get();
    FS.MF = &Comp.Module.Functions[I];
    FS.Target = Target.get();
    FS.Diags = &FnDiags;
    FS.ModuleName = Mod->Name;
    bool Ok = true;
    for (const pipeline::Pass &P : Passes) {
      T0 = Clock::now();
      // Same recovery point as PassManager::run: a failed check inside a
      // pass fails just this function.
      try {
        Ok = P.Run(FS);
      } catch (const CompileError &) {
        Ok = false;
      }
      LC.add(passMetric(P.Name), P.Name, T0, Clock::now());
      if (!Ok)
        break;
      if (P.Name == "select")
        L.SelectInstrs += FS.MF->instrCount();
    }
    if (!Ok) {
      target::MFunction Stub;
      Stub.Name = FS.ILFn->Name;
      Stub.IsStub = true;
      Comp.Module.Functions[I] = std::move(Stub);
      Out.Failed.push_back(FS.ILFn->Name);
    }
    L.Stats += FS.Stats;
  }
  const target::SelectionCounters::Snapshot Select =
      Target->counters().snapshot() - Before;
  L.NodesMatched += Select.NodesMatched;
  L.PatternsProbed += Select.PatternsProbed;

  T0 = Clock::now();
  Out.Assembly = Comp.assembly();
  const Clock::time_point End = Clock::now();
  LC.add("target.emit", "emit", T0, End);
  T.record("compile", "op", 0, OpStart, End, LC.Args);

  Out.Ms = msBetween(OpStart, End);
  ++L.Ops;
  ++L.MachineOps[C.Machine];
  L.OpMs += Out.Ms;
  Out.C = std::move(Comp);
  return Out;
}

void CompileLayers::report(RunResult &R) const {
  if (Ops == 0)
    return;
  double Covered = 0;
  for (const MetricSpec &S : perLayerMetrics()) {
    auto It = Ms.find(S.Name);
    if (It == Ms.end())
      continue;
    // A per-machine timer is averaged over that machine's ops only.
    size_t Dot = S.Name.rfind(".ms.");
    uint64_t N = Ops;
    if (Dot != std::string::npos) {
      auto M = MachineOps.find(S.Name.substr(Dot + 4));
      N = M == MachineOps.end() ? 0 : M->second;
    } else {
      Covered += It->second;
    }
    if (N)
      R.set(S.Name, It->second / static_cast<double>(N));
  }
  // The closure residual: op time no layer timer covers.
  R.set("driver.other.ms", (OpMs - Covered) / static_cast<double>(Ops));
  R.set("select.probes_per_node",
        NodesMatched ? static_cast<double>(PatternsProbed) /
                           static_cast<double>(NodesMatched)
                     : 0);
  R.set("select.instrs_out", static_cast<double>(SelectInstrs));
  R.set("sched.dag_nodes", static_cast<double>(Stats.DagNodes));
  R.set("sched.dag_edges", static_cast<double>(Stats.DagEdges));
  R.set("sched.scheduled_instrs", static_cast<double>(Stats.ScheduledInstrs));
  R.set("regalloc.spilled_pseudos", static_cast<double>(Stats.SpilledPseudos));
  R.set("regalloc.rounds", static_cast<double>(Stats.AllocatorRounds));
  // Closure check: the layer timers may not claim more than the op took,
  // and must account for nearly all of it.
  if (Covered > OpMs || OpMs - Covered > 0.1 * OpMs)
    R.problem("compile layers cover " + std::to_string(Covered) + " of " +
              std::to_string(OpMs) + " ms traced op time");
}

bool checkedSim(const driver::Compilation &C, sim::SimResult &Out, double &Ms,
                std::string &Why) {
  const Clock::time_point T0 = Clock::now();
  Out = sim::runProgram(C.Module, *C.Target, "main");
  Ms = msBetween(T0, Clock::now());
  if (!Out.Ok)
    Why = "simulation failed: " + Out.Error;
  else if (Out.IntResult != 1)
    Why = "main returned " + std::to_string(Out.IntResult);
  else if (Out.Stalls.total() != Out.Cycles - Out.IssueCycles)
    Why = "stall ledger does not close";
  else
    return true;
  return false;
}

std::vector<bool> simulateReference(
    const std::vector<std::pair<Cell, const driver::Compilation *>> &Cells,
    Tracer &T, SimLayers &L) {
  std::vector<bool> Ok(Cells.size(), true);
  for (size_t I = 0; I < Cells.size(); ++I) {
    const auto &[C, Comp] = Cells[I];
    sim::SimResult SR;
    double Ms = 0;
    std::string Why;
    nextCpu();
    probeHost();
    const Clock::time_point T0 = Clock::now();
    if (!checkedSim(*Comp, SR, Ms, Why)) {
      std::fprintf(stderr, "marionbench: %s: %s\n", C.name().c_str(),
                   Why.c_str());
      Ok[I] = false;
    }
    T.record("simulate", "sim", 0, T0, Clock::now(),
             SpanArgs().str("cell", C.name()).json());
    L.Instrs += SR.Instructions;
    L.Cycles += SR.Cycles;
    L.IssueCycles += SR.IssueCycles;
    L.Nops += SR.Nops;
    L.Branch += SR.Stalls.Branch;
    L.Interlock += SR.Stalls.Interlock;
    L.Memory += SR.Stalls.Memory;
    L.Resource += SR.Stalls.Resource;
    L.Estimated += sim::SimResult::estimatedCycles(Comp->Module, SR);
    L.TimedMs += Ms;
    L.Machine[C.Machine].first += SR.Instructions;
    L.Machine[C.Machine].second += Ms;
  }
  if (!T.enabled())
    return Ok;
  // Functional-only pass over the same cells: how much of the timed run
  // is the expression walk rather than the timing model.
  sim::SimOptions Functional;
  Functional.Timing = false;
  for (size_t I = 0; I < Cells.size(); ++I) {
    const auto &[C, Comp] = Cells[I];
    const Clock::time_point T0 = Clock::now();
    sim::SimResult SR = sim::runProgram(Comp->Module, *Comp->Target, "main",
                                        Functional);
    const Clock::time_point T1 = Clock::now();
    L.FunctionalMs += msBetween(T0, T1);
    T.record("simulate-functional", "sim", 0, T0, T1,
             SpanArgs().str("cell", C.name()).json());
    if (!SR.Ok || SR.IntResult != 1) {
      std::fprintf(stderr, "marionbench: %s: functional run disagrees\n",
                   C.name().c_str());
      Ok[I] = false;
    }
  }
  return Ok;
}

void SimLayers::report(RunResult &R) const {
  for (const auto &[Mach, InstrsMs] : Machine)
    if (InstrsMs.first)
      R.set("sim.ns_per_instr." + Mach,
            InstrsMs.second * 1e6 / static_cast<double>(InstrsMs.first));
  if (TimedMs > 0 && FunctionalMs > 0)
    R.set("sim.interpret_share", FunctionalMs / TimedMs);
  R.set("sim.instrs", static_cast<double>(Instrs));
  R.set("sim.issue_cycles", static_cast<double>(IssueCycles));
  R.set("sim.nops", static_cast<double>(Nops));
  R.set("sim.stall.branch", static_cast<double>(Branch));
  R.set("sim.stall.interlock", static_cast<double>(Interlock));
  R.set("sim.stall.memory", static_cast<double>(Memory));
  R.set("sim.stall.resource", static_cast<double>(Resource));
  R.set("sched.estimated_cycles", static_cast<double>(Estimated));
  if (Branch + Interlock + Memory + Resource != Cycles - IssueCycles)
    R.problem("stall counts do not sum to cycles - issue cycles");
}

} // namespace mb
