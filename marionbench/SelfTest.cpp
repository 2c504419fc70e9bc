//===- SelfTest.cpp - The benchmark's own tests ---------------------------==//
//
// Run with `marionbench --self-test [--work-dir <dir>]`, or `python3
// marionbench/run.py --self-test`, which also runs test_benchmark.py: the
// metric names' rules and BENCHMARK.json against --list-metrics.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cache/CacheKey.h"
#include "frontend/Frontend.h"
#include "service/CompileService.h"
#include "support/Diagnostics.h"

#include <cstdio>
#include <set>

using namespace marion;

namespace mb {

namespace {

unsigned Failures = 0;

void expect(bool Cond, const std::string &What) {
  if (!Cond) {
    ++Failures;
    std::fprintf(stderr, "FAIL: %s\n", What.c_str());
  }
}

/// The op sequence as comparable data: class, cell, strategy, source.
std::vector<std::tuple<int, unsigned, int, uint64_t>>
shape(const std::vector<DaemonOp> &Ops) {
  std::vector<std::tuple<int, unsigned, int, uint64_t>> V;
  for (const DaemonOp &Op : Ops)
    V.emplace_back(static_cast<int>(Op.Class), Op.CellIndex,
                   static_cast<int>(Op.Strategy), digest(*Op.Source));
  return V;
}

void testSequencesAreSeeded() {
  for (uint64_t Seed : {1ull, 7ull, 12345ull}) {
    auto A = daemonSequence(Seed, 0, 2, 2), B = daemonSequence(Seed, 0, 2, 2);
    expect(shape(A) == shape(B), "same seed gives the same daemon sequence");
    expect(shape(A) != shape(daemonSequence(Seed + 1, 0, 2, 2)),
           "a different seed gives a different daemon sequence");
    expect(shape(A) != shape(daemonSequence(Seed, 1, 2, 2)),
           "the two clients get different sequences");
  }
  Rng A(5), B(5), C(6);
  std::vector<unsigned> X{0, 1, 2, 3, 4, 5, 6, 7}, Y = X, Z = X;
  A.shuffle(X);
  B.shuffle(Y);
  C.shuffle(Z);
  expect(X == Y && X != Z, "cell order follows the seed");
}

void testSequenceShape() {
  const std::vector<DaemonOp> Ops = daemonSequence(3, 0, 2, 2);
  const size_t Cells = cleanCells().size();
  const size_t RoundOps = Cells * (2 + 2);
  expect(Ops.size() == 2 * RoundOps, "two rounds of the same size");
  std::set<uint64_t> EditSources;
  for (size_t Round = 0; Round < 2; ++Round) {
    std::map<OpClass, size_t> Count;
    for (size_t I = Round * RoundOps; I < (Round + 1) * RoundOps; ++I) {
      const DaemonOp &Op = Ops[I];
      ++Count[Op.Class];
      const uint64_t D = digest(*Op.Source);
      if (Op.Class == OpClass::Edit) {
        expect(EditSources.insert(D).second, "every edit is new");
        expect(Op.Strategy == cleanCells()[Op.CellIndex].Strategy,
               "an edit is sent under its cell's strategy");
      } else if (Op.Class == OpClass::Switch) {
        expect(EditSources.count(D) == 1,
               "a switch re-sends an edit sent before it");
        expect(Op.Strategy != cleanCells()[Op.CellIndex].Strategy,
               "a switch changes strategy");
      } else {
        expect(D == digest(sourceOf(cleanCells()[Op.CellIndex].File)),
               "an unchanged request sends the base source");
      }
    }
    expect(Count[OpClass::Unchanged] == 2 * Cells &&
               Count[OpClass::Edit] == Cells && Count[OpClass::Switch] == Cells,
           "every round is the same class multiset");
  }
}

/// Every edit compiles and changes exactly the edited function's key.
void testEditsChangeOneFunction() {
  service::CompileService Svc(service::CompileService::Config{});
  unsigned Checked = 0;
  for (uint64_t Seed : {1ull, 2ull, 3ull})
    for (unsigned Client : {0u, 1u})
      for (const DaemonOp &Op : daemonSequence(Seed, Client, 0, 2)) {
        if (Op.Class != OpClass::Edit)
          continue;
        Cell C = cleanCells()[Op.CellIndex];
        C.Strategy = Op.Strategy;
        service::CompileResult Res = Svc.compile(requestFor(C, *Op.Source));
        expect(Res.Ok && Res.FailedFunctions.empty(),
               "edit of " + C.name() + "/" + Op.EditedFunction +
                   " compiles: " + Res.DiagText.substr(0, 200));

        DiagnosticEngine Diags;
        auto Target = driver::loadTarget(C.Machine, Diags);
        auto Before = frontend::compileSource(sourceOf(C.File), C.File, Diags);
        auto After = frontend::compileSource(*Op.Source, C.File, Diags);
        std::vector<std::string> Changed;
        for (size_t I = 0; I < Before->Functions.size(); ++I) {
          auto Key = [&](const il::Function &Fn) {
            return cache::finalMirKey(Fn, *Target, select::SelectorOptions{},
                                      Op.Strategy, strategy::StrategyOptions{});
          };
          if (!(Key(*Before->Functions[I]) == Key(*After->Functions[I])))
            Changed.push_back(Before->Functions[I]->Name);
        }
        expect(Changed == std::vector<std::string>{Op.EditedFunction},
               "edit of " + C.name() + " changes exactly " +
                   Op.EditedFunction + "'s key");
        ++Checked;
      }
  expect(Checked == 3 * 2 * 2 * cleanCells().size(), "every edit checked");
}

void testLiteralSites() {
  const std::string Src = "/* 1 */ int g[8];\n"
                          "int f(int a) { if (a == 0) a = 2; "
                          "return a + 12 + 1.5; }\n"
                          "int main() { return f(3); }\n";
  std::vector<LiteralSite> S = literalSites(Src);
  expect(S.size() == 3 && S[0].Function == "f" && S[2].Function == "main",
         "literal sites: integers in function bodies, not equality tests");
  expect(S.size() == 3 &&
             applyEdit(Src, S[1], 5).find("a + 17 + 1.5") != std::string::npos,
         "applyEdit rewrites one literal");
}

/// The exact counts of a traced run are the same for every seed: the seed
/// orders the work and picks the edits, but never changes what is counted.
void testCountsAreSeedFree(const Options &Base) {
  static const std::vector<std::string> Counts = {
      "select.probes_per_node", "select.instrs_out", "sched.dag_nodes",
      "sched.dag_edges", "sched.scheduled_instrs", "regalloc.spilled_pseudos",
      "regalloc.rounds", "sim.instrs", "sim.issue_cycles", "sim.nops",
      "sim.stall.branch", "sim.stall.interlock", "sim.stall.memory",
      "sim.stall.resource", "sched.estimated_cycles", "cache.evictions",
      "service.rejected"};
  using Workload = RunResult (*)(const Options &, Tracer &);
  const std::vector<std::pair<std::string, Workload>> Workloads = {
      {"compile_cold", runCompileCold}, // Replays daemon_edit_mix too.
      {"daemon_edit_mix", runDaemonEditMix}};
  for (const auto &[Name, Run] : Workloads) {
    std::map<std::string, double> First;
    for (uint64_t Seed : {11ull, 12ull}) {
      Options O = Base;
      O.Workload = Name;
      O.Seed = Seed;
      O.Seconds = 1;
      O.Trace = true;
      Tracer T(true);
      RunResult R = Run(O, T);
      expect(R.correct(), Name + " traced run is correct");
      for (const std::string &C : Counts) {
        auto It = R.Values.find(C);
        expect(It != R.Values.end(), Name + " reports " + C);
        if (It == R.Values.end())
          continue;
        if (First.count(C))
          expect(First[C] == It->second,
                 Name + " " + C + " is the same for two seeds");
        First[C] = It->second;
      }
    }
  }
  allCpus();
}

} // namespace

int runSelfTest(const Options &O) {
  testLiteralSites();
  testSequencesAreSeeded();
  testSequenceShape();
  testEditsChangeOneFunction();
  testCountsAreSeedFree(O);
  std::printf("self-test: %s (%u failures)\n", Failures ? "FAIL" : "ok",
              Failures);
  return Failures ? 1 : 0;
}

} // namespace mb
