//===- Edits.cpp - Seeded literal edits and daemon op sequences -----------==//

#include "Bench.h"

#include <cctype>
#include <set>

namespace mb {

static bool isIdent(char Ch) {
  return std::isalnum(static_cast<unsigned char>(Ch)) || Ch == '_';
}

std::vector<LiteralSite> literalSites(const std::string &Src) {
  std::vector<LiteralSite> Sites;
  std::string LastIdent, Function;
  int Depth = 0;
  size_t I = 0;
  while (I < Src.size()) {
    char Ch = Src[I];
    if (Src.compare(I, 2, "/*") == 0) {
      size_t End = Src.find("*/", I + 2);
      I = End == std::string::npos ? Src.size() : End + 2;
    } else if (Src.compare(I, 2, "//") == 0) {
      size_t End = Src.find('\n', I);
      I = End == std::string::npos ? Src.size() : End + 1;
    } else if (std::isdigit(static_cast<unsigned char>(Ch))) {
      size_t Start = I;
      while (I < Src.size() && (isIdent(Src[I]) || Src[I] == '.'))
        ++I;
      bool Integer = true;
      for (size_t K = Start; K < I; ++K)
        Integer &= std::isdigit(static_cast<unsigned char>(Src[K])) != 0;
      // Equality tests against a literal are never edited: toyp and m88000
      // cannot select `load == <nonzero constant>` (suite_queens's
      // `diag1[row + c] == 0` edited to `== 1` fails on both), and an edit
      // must compile everywhere.
      size_t Prev = Src.find_last_not_of(" \t", Start - 1);
      bool Equality = Prev != std::string::npos && Prev > 0 &&
                      Src[Prev] == '=' &&
                      (Src[Prev - 1] == '=' || Src[Prev - 1] == '!');
      if (Integer && !Equality && Depth > 0 && I - Start < 6)
        Sites.push_back({Start, I - Start, Function});
    } else if (isIdent(Ch)) {
      size_t Start = I;
      while (I < Src.size() && isIdent(Src[I]))
        ++I;
      LastIdent = Src.substr(Start, I - Start);
    } else {
      // A '(' at file scope follows the name of the function being defined.
      if (Ch == '(' && Depth == 0)
        Function = LastIdent;
      else if (Ch == '{')
        ++Depth;
      else if (Ch == '}')
        --Depth;
      ++I;
    }
  }
  return Sites;
}

std::string applyEdit(const std::string &Source, const LiteralSite &Site,
                      long Delta) {
  long Value = std::stol(Source.substr(Site.Offset, Site.Length)) + Delta;
  return Source.substr(0, Site.Offset) + std::to_string(Value) +
         Source.substr(Site.Offset + Site.Length);
}

const char *className(OpClass K) {
  switch (K) {
  case OpClass::Unchanged:
    return "unchanged";
  case OpClass::Switch:
    return "switch";
  case OpClass::Edit:
    return "edit";
  }
  return "?";
}

std::vector<DaemonOp> daemonSequence(uint64_t Seed, unsigned Client,
                                     unsigned Unchanged, unsigned Rounds) {
  const std::vector<Cell> &Cells = cleanCells();
  Rng R(Seed * 0x100000001b3ull + Client + 1);

  // Every round is the same multiset: per clean cell, Unchanged re-sends of
  // its base source and one edit, re-sent once under another strategy (one
  // of the two others, alternating over rounds and cells). Each round is
  // shuffled on its own, so every round does the same mix of work and only
  // the order and the edit sites depend on the seed.
  std::vector<DaemonOp> Ops;
  for (unsigned K = 0; K < Rounds; ++K) {
    std::vector<DaemonOp> Round;
    for (unsigned CI = 0; CI < Cells.size(); ++CI) {
      for (unsigned U = 0; U < Unchanged; ++U)
        Round.push_back({OpClass::Unchanged, CI, Cells[CI].Strategy, {}, {}});
      Round.push_back({OpClass::Edit, CI, Cells[CI].Strategy, {}, {}});
      Round.push_back(
          {OpClass::Switch, CI,
           kStrategies[(static_cast<unsigned>(Cells[CI].Strategy) + 1 +
                        (K + CI) % 2) %
                       3],
           {}, {}});
    }
    R.shuffle(Round);
    Ops.insert(Ops.end(), Round.begin(), Round.end());
  }

  // Pair each switch with an edit of the same cell that precedes it: the
  // k-th switch of a cell re-sends that cell's k-th edit (both in round k),
  // swapping the two when the switch came first.
  std::map<unsigned, std::vector<size_t>> EditsOf, SwitchesOf;
  for (size_t I = 0; I < Ops.size(); ++I) {
    if (Ops[I].Class == OpClass::Edit)
      EditsOf[Ops[I].CellIndex].push_back(I);
    else if (Ops[I].Class == OpClass::Switch)
      SwitchesOf[Ops[I].CellIndex].push_back(I);
  }
  std::vector<std::pair<size_t, size_t>> Pairs; // (edit, switch) positions
  for (auto &[CI, Sw] : SwitchesOf)
    for (size_t K = 0; K < Sw.size(); ++K) {
      size_t E = EditsOf[CI][K], S = Sw[K];
      if (S < E) {
        std::swap(Ops[E], Ops[S]);
        std::swap(E, S);
      }
      Pairs.push_back({E, S});
    }

  // Materialise sources in sequence order. Each file's edits cycle through
  // its functions from a seeded start, so every run edits each function
  // about equally often and the seed picks only the literal and its order.
  // Client c's deltas are c+1, c+3, ..., so the two clients never produce
  // the same edited source, and a client never repeats one: every edit is
  // new to the daemon.
  std::set<uint64_t> Seen;
  std::map<std::string, std::shared_ptr<const std::string>> BaseOf;
  struct FileEdits {
    std::vector<LiteralSite> Sites;
    std::vector<std::string> Functions;
    size_t Cursor = 0;
  };
  std::map<std::string, FileEdits> ByFile;
  std::map<size_t, size_t> SwitchOfEdit;
  for (auto [E, S] : Pairs)
    SwitchOfEdit[E] = S;
  for (size_t I = 0; I < Ops.size(); ++I) {
    DaemonOp &Op = Ops[I];
    const std::string &File = Cells[Op.CellIndex].File;
    const std::string &Base = sourceOf(File);
    if (Op.Class == OpClass::Unchanged) {
      auto &P = BaseOf[File];
      if (!P)
        P = std::make_shared<const std::string>(Base);
      Op.Source = P;
    } else if (Op.Class == OpClass::Edit) {
      FileEdits &F = ByFile[File];
      if (F.Functions.empty()) {
        F.Sites = literalSites(Base);
        for (const LiteralSite &S : F.Sites)
          if (F.Functions.empty() || F.Functions.back() != S.Function)
            F.Functions.push_back(S.Function);
        F.Cursor = R.below(F.Functions.size());
      }
      const std::string &Fn = F.Functions[F.Cursor++ % F.Functions.size()];
      std::vector<const LiteralSite *> InFn;
      for (const LiteralSite &S : F.Sites)
        if (S.Function == Fn)
          InFn.push_back(&S);
      for (long Step = 0;; ++Step) {
        const LiteralSite &Site = *InFn[R.below(InFn.size())];
        std::string Edited =
            applyEdit(Base, Site, static_cast<long>(Client) + 1 + 2 * Step);
        if (Seen.insert(digest(Edited)).second) {
          Op.Source = std::make_shared<const std::string>(std::move(Edited));
          Op.EditedFunction = Fn;
          break;
        }
      }
      DaemonOp &Sw = Ops[SwitchOfEdit.at(I)];
      Sw.Source = Op.Source;
      Sw.EditedFunction = Op.EditedFunction;
    }
  }
  return Ops;
}

} // namespace mb
