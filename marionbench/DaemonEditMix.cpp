//===- DaemonEditMix.cpp - The daemon_edit_mix workload -------------------==//
//
// An in-process service::Server on a Unix socket, cache on, all four
// machines warm, 2 workers. Two client threads, each holding one
// DaemonClient connection and waiting for every reply, replay a developer's
// edit-compile loop over the 12 clean file x machine pairs and all three
// strategies. Three request classes:
//
//   unchanged  a source already compiled under that strategy: every
//              function hits the FinalMIR tier (most requests, so p50 sits
//              well inside this cluster);
//   edit       a never-seen literal change inside one function body: that
//              function misses both tiers;
//   switch     an earlier edit re-sent under another strategy: the edited
//              function hits the selected-MIR tier and re-runs sched and
//              regalloc.
//
// Edits and switches are 8% of requests, so p99 sits well inside their
// cluster, away from the boundary at p92. The clients meet at the end of
// every round of the sequence (the same multiset each round), so the run's
// throughput is the median round's.
//
// BENCHMARK.json does not list this workload: every request hands off
// between four threads, so its latencies follow the shared host's thread
// wake-up delays, which swing by several times from one run to the next
// (README). compile_cold's traced run replays it for the daemon's layers.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cache/CacheKey.h"
#include "cache/CompileCache.h"
#include "frontend/Frontend.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Diagnostics.h"

#include <atomic>
#include <barrier>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <thread>
#include <tuple>
#include <unistd.h>

using namespace marion;

namespace mb {

namespace {

struct Record {
  const DaemonOp *Op = nullptr;
  unsigned Client = 0;
  unsigned Round = 0;
  std::string ReqId;
  Clock::time_point Start, End;
  bool Ok = false;
  uint64_t Digest = 0;
  double ms() const { return msBetween(Start, End); }
};

/// (source digest, machine, strategy): what the daemon's output depends on.
using Key = std::tuple<uint64_t, std::string, StrategyKind>;

struct Region {
  std::vector<Record> Records; ///< Client 0's ops, then client 1's.
  std::vector<double> RoundS;  ///< Wall time of each round.
};

shard::CompileRequestFrame frameFor(const Cell &C, StrategyKind K,
                                    const std::string &Source,
                                    const std::string &ReqId, int Index) {
  shard::CompileRequestFrame F;
  F.Proto = shard::kWireProtoVersion;
  F.Index = Index;
  F.Path = C.path();
  F.Machine = C.Machine;
  F.Strategy = strategy::strategyName(K);
  F.ReqId = ReqId;
  F.Source = Source;
  return F;
}

/// Starts a daemon and compiles every clean cell's base source once, so
/// the unchanged class hits from its first request.
std::unique_ptr<service::Server> startWarm(const std::string &Socket,
                                           const std::string &AccessLog,
                                           std::string &Error) {
  service::ServerConfig Cfg;
  Cfg.SocketPath = Socket;
  Cfg.Workers = 2;
  Cfg.AccessLogPath = AccessLog;
  Cfg.Service.UseCache = true;
  Cfg.Service.WarmMachines = kMachines;
  auto D = std::make_unique<service::Server>(Cfg);
  if (!D->start(Error))
    return nullptr;
  service::DaemonClient Client(Socket);
  int Index = 0;
  for (const Cell &C : cleanCells()) {
    shard::FileResult Res;
    if (!Client.compile(frameFor(C, C.Strategy, sourceOf(C.File), {}, Index++),
                        Res, Error))
      return nullptr;
    if (!Res.Ok) {
      Error = "warm-up compile of " + C.name() + " failed";
      return nullptr;
    }
  }
  return D;
}

/// Probe chunks at each round's end and per set-up repetition.
constexpr unsigned kRoundProbes = 20;

/// Runs both clients' sequences against the daemon, closed-loop, in rounds
/// of \p RoundOps ops per client; the clients wait for each other at the
/// end of every round.
Region drive(const std::string &Socket,
             const std::vector<std::vector<DaemonOp>> &Seqs, size_t RoundOps,
             const std::string &Tag) {
  const std::vector<Cell> &Cells = cleanCells();
  Region Out;
  std::vector<std::vector<Record>> PerClient(Seqs.size());
  // While the clients wait for each other, one of them probes the host;
  // a round runs from the end of one probe to the start of the next.
  std::vector<Clock::time_point> Ends, Starts;
  auto Stamp = [&]() noexcept {
    Ends.push_back(Clock::now());
    probeHost(kRoundProbes);
    Starts.push_back(Clock::now());
  };
  std::barrier Meet(static_cast<std::ptrdiff_t>(Seqs.size()), Stamp);
  std::vector<std::thread> Threads;
  for (size_t CI = 0; CI < Seqs.size(); ++CI)
    Threads.emplace_back([&, CI] {
      service::DaemonClient Client(Socket);
      std::vector<Record> &Recs = PerClient[CI];
      Recs.reserve(Seqs[CI].size());
      Meet.arrive_and_wait();
      for (size_t N = 0; N < Seqs[CI].size(); ++N) {
        const DaemonOp &Op = Seqs[CI][N];
        Record Rec;
        Rec.Op = &Op;
        Rec.Client = static_cast<unsigned>(CI);
        Rec.Round = static_cast<unsigned>(N / RoundOps);
        Rec.ReqId = Tag + std::to_string(CI) + "-" + std::to_string(N);
        shard::CompileRequestFrame F = frameFor(
            Cells[Op.CellIndex], Op.Strategy, *Op.Source, Rec.ReqId,
            static_cast<int>(N));
        shard::FileResult Res;
        std::string Error;
        Rec.Start = Clock::now();
        bool Sent = Client.compile(F, Res, Error);
        Rec.End = Clock::now();
        Rec.Ok = Sent && Res.Ok && !Res.Busy && !Res.TimedOut;
        Rec.Digest = digest(Res.Assembly);
        Recs.push_back(std::move(Rec));
        if ((N + 1) % RoundOps == 0)
          Meet.arrive_and_wait();
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  for (size_t K = 1; K < Ends.size(); ++K)
    Out.RoundS.push_back(msBetween(Starts[K - 1], Ends[K]) / 1000.0);
  for (std::vector<Record> &Recs : PerClient)
    for (Record &Rec : Recs)
      Out.Records.push_back(std::move(Rec));
  return Out;
}

Key keyOf(const Cell &C, const DaemonOp &Op) {
  return {digest(*Op.Source), C.Machine, Op.Strategy};
}

/// One line of the daemon's access log.
struct LogLine {
  long long QueueUs = 0, CompileUs = 0, TotalUs = 0;
};

/// Reads "reqid" and the three *_micros fields of each access-log line.
std::map<std::string, LogLine> readAccessLog(const std::string &Path) {
  std::map<std::string, LogLine> Out;
  std::ifstream In(Path);
  std::string Line;
  auto field = [&](const std::string &Name) -> std::string {
    size_t P = Line.find("\"" + Name + "\": ");
    if (P == std::string::npos)
      return {};
    P += Name.size() + 4;
    size_t E = Line.find_first_of(",}", P);
    std::string V = Line.substr(P, E - P);
    if (!V.empty() && V.front() == '"')
      V = V.substr(1, V.size() - 2);
    return V;
  };
  while (std::getline(In, Line)) {
    LogLine L;
    L.QueueUs = std::stoll("0" + field("queue_micros"));
    L.CompileUs = std::stoll("0" + field("compile_micros"));
    L.TotalUs = std::stoll("0" + field("total_micros"));
    Out[field("reqid")] = L;
  }
  return Out;
}

/// Reads an integer "name": value from a stats-export document; NaN when
/// it is absent.
double exportValue(const std::string &Json, const std::string &Name) {
  size_t P = Json.find("\"" + Name + "\":");
  if (P == std::string::npos)
    return std::numeric_limits<double>::quiet_NaN();
  return std::stod(Json.substr(P + Name.size() + 3));
}

} // namespace

RunResult runDaemonEditMix(const Options &O, Tracer &T) {
  RunResult R;
  // The daemon's and the clients' threads may use every CPU.
  allCpus();
  const std::vector<Cell> &Cells = cleanCells();
  constexpr unsigned Unchanged = 23; // Per cell and round: 92% of requests.
  const unsigned Rounds = std::max(2u, O.Seconds / 2);
  const size_t RoundOps = Cells.size() * (Unchanged + 2);
  const std::vector<std::vector<DaemonOp>> Seqs = {
      daemonSequence(O.Seed, 0, Unchanged, Rounds),
      daemonSequence(O.Seed, 1, Unchanged, Rounds)};

  const std::string Stem = O.WorkDir + "/d" + std::to_string(::getpid());
  const std::string Socket = Stem + ".sock", AccessLog = Stem + ".log";

  // Set-up: fresh table builds, daemon start, cache warm-up.
  std::unique_ptr<service::Server> D;
  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep < kSetupReps; ++Rep) {
    D.reset();
    probeHost(kRoundProbes);
    const Clock::time_point T0 = Clock::now();
    std::string Error;
    if (!buildTargetsFresh() || !(D = startWarm(Socket, {}, Error))) {
      R.problem("daemon set-up failed: " + Error);
      return R;
    }
    SetupS.push_back(msBetween(T0, Clock::now()) / 1000.0);
  }

  Region Untraced = drive(Socket, Seqs, RoundOps, "u");
  service::Server::Counters Ctr = D->counters();
  uint64_t Evictions = D->service().cache()->snapshot().Evictions;
  D.reset();

  // The traced region replays the same sequences against a fresh daemon
  // that writes an access log; the client spans carry each request's id.
  Region Traced;
  std::map<std::string, LogLine> Log;
  double HitShare = 0, AdminRejected = 0, AdminMaxDepth = 0;
  if (T.enabled()) {
    std::remove(AccessLog.c_str());
    std::string Error;
    D = startWarm(Socket, AccessLog, Error);
    if (!D) {
      R.problem("traced daemon set-up failed: " + Error);
      return R;
    }
    const cache::CompileCache::Snapshot Before =
        D->service().cache()->snapshot();
    Traced = drive(Socket, Seqs, RoundOps, "t");
    const cache::CompileCache::Snapshot Delta =
        D->service().cache()->snapshot() - Before;
    HitShare = Delta.lookups() ? Delta.hitRate()
                               : std::numeric_limits<double>::quiet_NaN();
    std::string Stats;
    service::DaemonClient Admin(Socket);
    if (!Admin.admin("stats", Stats, Error))
      R.problem("%ADMIN stats failed: " + Error);
    AdminRejected = exportValue(Stats, "service.rejected");
    AdminMaxDepth = exportValue(Stats, "service.max_queue_depth");
    const service::Server::Counters TC = D->counters();
    Ctr.Rejected += TC.Rejected;
    Ctr.TimedOut += TC.TimedOut;
    Evictions += D->service().cache()->snapshot().Evictions;
    D.reset();
    Log = readAccessLog(AccessLog);
    std::remove(AccessLog.c_str());
  }
  if (Ctr.Rejected || Ctr.TimedOut || Evictions)
    R.problem("daemon rejected, timed out or evicted: " +
              std::to_string(Ctr.Rejected) + "/" +
              std::to_string(Ctr.TimedOut) + "/" + std::to_string(Evictions));

  // Every distinct request must have produced one assembly, equal to an
  // in-process compile of the same source with the cache off (the traced
  // harness path in a traced run).
  std::map<Key, const DaemonOp *> Distinct;
  for (const Region *Reg : {&Untraced, &Traced})
    for (const Record &Rec : Reg->Records)
      Distinct.emplace(keyOf(Cells[Rec.Op->CellIndex], *Rec.Op), Rec.Op);
  // One reference compile per distinct request: serial through the traced
  // harness path in a traced run, else on four threads sharing one
  // cache-off CompileService (it is re-entrant). The per-layer figures come
  // from the 36 base sources only: which functions the edits and switches
  // recompile depends on the seed, so their compiles are checked and traced
  // but not counted.
  const std::vector<std::pair<Key, const DaemonOp *>> Work(Distinct.begin(),
                                                           Distinct.end());
  service::CompileService Reference(service::CompileService::Config{});
  CompileLayers Layers, EditLayers;
  std::vector<std::pair<uint64_t, uint64_t>> Expected(Work.size());
  std::vector<std::optional<driver::Compilation>> Kept(Work.size());
  auto compileOne = [&](size_t I) {
    const DaemonOp &Op = *Work[I].second;
    Cell C = Cells[Op.CellIndex];
    C.Strategy = Op.Strategy;
    std::string Assembly;
    std::optional<driver::Compilation> Comp;
    if (T.enabled()) {
      CompileOutcome TO = tracedCompile(
          C, *Op.Source, T,
          Op.Class == OpClass::Unchanged ? Layers : EditLayers);
      Assembly = std::move(TO.Assembly);
      Comp = std::move(TO.C);
    } else {
      Assembly = Reference.compile(requestFor(C, *Op.Source), &Comp).Assembly;
    }
    Expected[I] = {digest(Assembly), Comp ? staticInstrs(*Comp) : 0};
    if (Op.Class == OpClass::Unchanged)
      Kept[I] = std::move(Comp);
  };
  if (T.enabled()) {
    for (size_t I = 0; I < Work.size(); ++I)
      compileOne(I);
  } else {
    std::atomic<size_t> Next{0};
    std::vector<std::thread> Pool;
    for (unsigned W = 0; W < 4; ++W)
      Pool.emplace_back([&] {
        for (size_t I; (I = Next.fetch_add(1)) < Work.size();)
          compileOne(I);
      });
    for (std::thread &Th : Pool)
      Th.join();
  }
  std::map<Key, std::pair<uint64_t, uint64_t>> Expect; // digest, instrs
  std::vector<std::optional<driver::Compilation>> BaseComp(Cells.size());
  for (size_t I = 0; I < Work.size(); ++I) {
    Expect[Work[I].first] = Expected[I];
    if (Kept[I])
      BaseComp[Work[I].second->CellIndex] = std::move(Kept[I]);
  }

  // The base sources' self-checking mains must return 1; an unchanged
  // request of a cell that fails here fails too.
  std::vector<std::pair<Cell, const driver::Compilation *>> Base;
  for (unsigned I = 0; I < Cells.size(); ++I)
    if (BaseComp[I])
      Base.push_back({Cells[I], &*BaseComp[I]});
  SimLayers Sim;
  const std::vector<bool> SimOk = simulateReference(Base, T, Sim);
  std::set<std::string> BadCells;
  for (size_t I = 0; I < Base.size(); ++I)
    if (!SimOk[I])
      BadCells.insert(Base[I].first.name());

  std::vector<uint64_t> RoundInstrs(Untraced.RoundS.size(), 0);
  std::vector<double> Lat;
  for (const Region *Reg : {&Untraced, &Traced})
    for (const Record &Rec : Reg->Records) {
      const Cell &C = Cells[Rec.Op->CellIndex];
      const Key K = keyOf(C, *Rec.Op);
      bool Ok = Rec.Ok && Rec.Digest == Expect[K].first &&
                !(Rec.Op->Class == OpClass::Unchanged &&
                  BadCells.count(C.name()));
      R.op(Ok);
      if (Reg == &Untraced) {
        RoundInstrs[Rec.Round] += Expect[K].second;
        Lat.push_back(Rec.ms());
      }
    }

  if (T.enabled()) {
    Layers.report(R);
    Sim.report(R);
    std::vector<double> Queue, Compile, Post, Wire, TracedMs;
    std::map<OpClass, std::vector<double>> ByClass;
    for (const Record &Rec : Traced.Records) {
      TracedMs.push_back(Rec.ms());
      ByClass[Rec.Op->Class].push_back(Rec.ms());
      auto It = Log.find(Rec.ReqId);
      SpanArgs Args;
      Args.str("reqid", Rec.ReqId).str("class", className(Rec.Op->Class));
      if (It == Log.end()) {
        R.problem("no access-log line for " + Rec.ReqId);
      } else {
        const LogLine &L = It->second;
        Queue.push_back(L.QueueUs / 1000.0);
        Compile.push_back(L.CompileUs / 1000.0);
        Post.push_back((L.TotalUs - L.QueueUs - L.CompileUs) / 1000.0);
        Wire.push_back(Rec.ms() - L.TotalUs / 1000.0);
        Args.num("queue_us", static_cast<double>(L.QueueUs))
            .num("compile_us", static_cast<double>(L.CompileUs))
            .num("total_us", static_cast<double>(L.TotalUs));
      }
      T.record("request", "daemon", 1 + Rec.Client, Rec.Start, Rec.End,
               Args.json());
    }
    R.set("service.queue_ms.p50", percentile(Queue, 0.5));
    R.set("service.compile_ms.p50", percentile(Compile, 0.5));
    R.set("service.compile_ms.p99", percentile(Compile, 0.99));
    R.set("service.post_compile_ms.p50", percentile(Post, 0.5));
    R.set("wire.client_ms.p50", percentile(Wire, 0.5));
    for (OpClass K : {OpClass::Unchanged, OpClass::Switch, OpClass::Edit})
      R.set(std::string("class.") + className(K) + ".latency_ms.p50",
            percentile(ByClass[K], 0.5));
    R.set("cache.hit_share", HitShare);
    R.set("cache.evictions", static_cast<double>(Evictions));
    R.set("service.rejected", AdminRejected);
    R.set("service.max_queue_depth", AdminMaxDepth);

    // The fixed cost every hit pays before the probe: re-parse, then one
    // FinalMIR fingerprint per function.
    std::vector<double> Parse, Fingerprint;
    DiagnosticEngine Diags;
    for (const Record &Rec : Traced.Records) {
      if (Rec.Op->Class != OpClass::Unchanged)
        continue;
      const Cell &C = Cells[Rec.Op->CellIndex];
      auto Target = driver::loadTarget(C.Machine, Diags);
      const Clock::time_point T0 = Clock::now();
      auto Mod = frontend::compileSource(*Rec.Op->Source, C.File, Diags);
      const Clock::time_point T1 = Clock::now();
      if (!Mod) {
        R.problem("hit replay of " + C.name() + " failed to parse");
        break;
      }
      for (const auto &Fn : Mod->Functions)
        (void)cache::finalMirKey(*Fn, *Target, select::SelectorOptions{},
                                 Rec.Op->Strategy, strategy::StrategyOptions{});
      const Clock::time_point T2 = Clock::now();
      Parse.push_back(msBetween(T0, T1));
      Fingerprint.push_back(msBetween(T1, T2));
      T.record("hit-replay.frontend", "replay", 0, T0, T1);
      T.record("hit-replay.fingerprint", "replay", 0, T1, T2);
    }
    R.set("hit_replay.frontend_ms", percentile(Parse, 0.5));
    R.set("hit_replay.fingerprint_ms", percentile(Fingerprint, 0.5));
    R.set("trace.overhead_ratio", sum(TracedMs) / sum(Lat) - 1.0);
    return R;
  }
  uint64_t StaticInstrs = 0;
  for (const auto &[C, Comp] : Base)
    StaticInstrs += staticInstrs(*Comp);
  R.set("setup_s", setupMedian(SetupS));
  R.set("latency_ms.p50", percentile(Lat, 0.50));
  R.set("latency_ms.p90", percentile(Lat, 0.90));
  R.set("latency_ms.p99", percentile(Lat, 0.99));
  // Throughput is the median round's: every round is the same multiset of
  // requests, so a host stall in one round does not move it.
  std::vector<double> RoundOpsPerS, RoundInstrsPerS;
  for (size_t K = 0; K < Untraced.RoundS.size(); ++K) {
    RoundOpsPerS.push_back(static_cast<double>(RoundOps * Seqs.size()) /
                           Untraced.RoundS[K]);
    RoundInstrsPerS.push_back(static_cast<double>(RoundInstrs[K]) /
                              Untraced.RoundS[K]);
  }
  R.set("ops_per_s", percentile(RoundOpsPerS, 0.5));
  R.set("compiled_instrs_per_s", percentile(RoundInstrsPerS, 0.5));
  R.set("sim_instrs_per_s",
        static_cast<double>(Sim.Instrs) / (Sim.TimedMs / 1000.0));
  R.set("code.static_instrs", static_cast<double>(StaticInstrs));
  R.set("code.cycles", static_cast<double>(Sim.Cycles));
  return R;
}

void traceDaemonLayers(const Options &O, Tracer &T, RunResult &R) {
  Options Short = O;
  Short.Seconds = 1;
  RunResult D = runDaemonEditMix(Short, T);
  R.Attempted += D.Attempted;
  R.Failed += D.Failed;
  for (const std::string &P : D.Problems)
    R.problem("daemon replay: " + P);
  for (const MetricSpec &S : daemonLayerMetrics()) {
    auto It = D.Values.find(S.Name);
    if (It != D.Values.end())
      R.set(S.Name, It->second);
  }
}

} // namespace mb
