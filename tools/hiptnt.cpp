//===- tools/hiptnt.cpp - Command-line driver -------------------*- C++ -*-===//
//
// Single program:
//   hiptnt <file> [--monolithic] [--no-abduction] [--cond-term]
//          [--entry <name>] [--threads <n>] [--stats]
//
// Batch mode:
//   hiptnt --batch <dir|@corpus[:N]|@fig11> [--threads <n>]
//          [--stats] [--outcomes]
//          [--monolithic] [--no-abduction] [--cond-term] [--entry <name>]
//
// Server mode:
//   hiptnt --serve [--reclaim-every <n>]
//   hiptnt --serve-socket <path> [--serve-workers <n>] [--serve-queue <n>]
//   hiptnt --serve-smoke <n>
//
// --help / -h prints the full flag reference (printUsage) and exits 0;
// an unknown flag prints the same text to stderr and exits 2.
//
// Single mode parses the program, runs the termination/non-termination
// inference and prints the per-method case-based specifications plus
// the entry method's whole-program verdict. Batch mode analyzes a
// whole corpus — every .t/.tnt file of a directory, the built-in benchmark
// corpus (@corpus, optionally sliced to its first N programs), or the
// Fig. 11 loop-based set (@fig11) — over a shared work-stealing pool,
// inferring each content key once, and prints the per-category
// Fig. 10/11-style outcome table (plus a soundness check against
// ground truth for the built-in corpora). Server mode runs the one
// analysis server (api/AnalysisServer.h: protocol, spec store,
// per-request intern reclamation) over a transport: --serve reads
// newline-delimited JSON requests on stdin and answers one line each,
// in request order; --serve-socket serves many clients on a
// unix-domain socket, multiplexed over a worker pool, with responses
// correlated by id. --serve-smoke self-drives <n> corpus-variant
// requests from 8 in-process clients, checks every response against a
// fresh single-program run, and fails on a shed, a global-id fallback,
// a grown VarPool, a reclaim that never dropped anything, an interned
// arena that keeps growing across epochs, or a stream of repeated
// programs that never replayed a group from the server's spec store —
// the CI fence for the long-lived regime.
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisServer.h"
#include "api/BatchAnalyzer.h"
#include "arith/Var.h"
#include "store/SpecStore.h"
#include "support/Json.h"
#include "support/Trace.h"
#include "workloads/Corpus.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

using namespace tnt;

namespace {

void printUsage(std::ostream &OS) {
  OS << "usage: hiptnt <file> [options]\n"
        "       hiptnt --batch <dir|@corpus[:N]|@fig11[:N]> [options]\n"
        "       hiptnt --serve [options]\n"
        "       hiptnt --serve-socket <path> [options]\n"
        "       hiptnt --serve-smoke <n>\n"
        "\n"
        "modes:\n"
        "  <file>                analyze one program, print per-method "
        "case specs\n"
        "  --batch <target>      analyze a corpus (a directory of .t/.tnt "
        "files, the\n"
        "                        built-in @corpus[:N], or the Fig. 11 set "
        "@fig11) and\n"
        "                        print the per-category outcome table\n"
        "  --serve               analysis server on stdin/stdout: "
        "newline-delimited JSON,\n"
        "                        one response line per request, in "
        "request order\n"
        "  --serve-socket <path> the same server on a unix-domain socket "
        "for many clients\n"
        "                        (responses correlate by id, not order)\n"
        "  --serve-smoke <n>     8-client server soak of <n> requests, "
        "each checked\n"
        "                        against a fresh run (CI fence)\n"
        "\n"
        "options:\n"
        "  -h, --help            print this help and exit\n"
        "  --entry <name>        entry method (default: main); applies to "
        "directory programs\n"
        "  --monolithic          whole-program analysis (no per-SCC "
        "modular groups)\n"
        "  --no-abduction        disable precondition abduction\n"
        "  --cond-term           conditional-termination mode: synthesize "
        "and audit a\n"
        "                        termination precondition per scenario, "
        "add the Cond\n"
        "                        column to the batch table\n"
        "  --threads <n>         worker threads for group scheduling "
        "(one program or a\n"
        "                        batch)\n"
        "  --stats               print group, solver, intern and store "
        "statistics\n"
        "  --outcomes            print every program's rendered summary "
        "(batch)\n"
        "  --store <file>        persistent spec store file: load before, "
        "save after the\n"
        "                        run (a server keeps its store in memory "
        "without it)\n"
        "  --expect-store-hits   fail unless EVERY group replayed from "
        "the store and the\n"
        "                        outcomes digest matches the stored run "
        "(batch)\n"
        "  --profile             batch mode: print the top-20 slowest "
        "groups with their\n"
        "                        solver query counts and store "
        "attribution\n"
        "  --trace-out <file>    write a Chrome trace-event JSON file "
        "(Perfetto-loadable)\n"
        "                        of the run: pipeline phases, solver "
        "queries, store\n"
        "                        operations; works in every mode\n"
        "  --reclaim-every <n>   serve mode: reclaim per-request intern "
        "garbage every n\n"
        "                        requests (default 64)\n"
        "  --serve-workers <n>   socket mode: max program requests in "
        "flight (default 4)\n"
        "  --serve-queue <n>     socket mode: admission queue depth "
        "before load-shedding\n"
        "                        (default 64)\n";
}

int usage() {
  printUsage(std::cerr);
  return 2;
}

/// Resolves a --batch target to items, plus the matching ground-truth
/// programs when the target is a built-in corpus (empty for
/// directories: outside sources have no ground truth). Directory
/// items use \p Entry as their entry method.
bool batchItems(const std::string &Target, const std::string &Entry,
                std::vector<BatchItem> &Items,
                std::vector<const BenchProgram *> &Truth) {
  if (Target.rfind("@fig11", 0) == 0) {
    size_t Limit = 0;
    if (Target.size() > 6) {
      if (Target[6] != ':')
        return false;
      char *End = nullptr;
      unsigned long N = std::strtoul(Target.c_str() + 7, &End, 10);
      if (*End != '\0' || N == 0)
        return false;
      Limit = N;
    }
    Items = loopBasedBatchItems();
    Truth = loopBasedPrograms();
    // A prefix slice, like @corpus:N — @fig11:20 is the trace-smoke /
    // bench workload: big enough to exercise every pipeline phase,
    // small enough to run twice per CI job.
    if (Limit != 0 && Limit < Items.size()) {
      Items.resize(Limit);
      Truth.resize(Limit);
    }
    return true;
  }
  if (Target.rfind("@corpus", 0) == 0) {
    size_t Limit = 0;
    if (Target.size() > 7) {
      if (Target[7] != ':')
        return false;
      char *End = nullptr;
      unsigned long N = std::strtoul(Target.c_str() + 8, &End, 10);
      if (*End != '\0' || N == 0)
        return false;
      Limit = N;
    }
    Items = corpusBatchItems(Limit);
    // corpusBatchItems is a prefix of corpus() in corpus order, so the
    // ground-truth slice is simply the first Items.size() programs —
    // one limit implementation, no index drift.
    for (size_t I = 0; I < Items.size(); ++I)
      Truth.push_back(&corpus()[I]);
    return true;
  }
  if (!Target.empty() && Target[0] == '@')
    return false;

  std::error_code EC;
  std::filesystem::directory_iterator Dir(Target, EC);
  if (EC) {
    std::cerr << "cannot read directory " << Target << ": " << EC.message()
              << "\n";
    return false;
  }
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry2 : Dir) {
    if (!Entry2.is_regular_file())
      continue;
    // Programs only: a benchmark directory often carries READMEs or
    // .expected files, which must not show up as failed-parse rows.
    std::string Ext = Entry2.path().extension().string();
    if (Ext == ".t" || Ext == ".tnt")
      Files.push_back(Entry2.path());
  }
  std::sort(Files.begin(), Files.end()); // Deterministic input order.
  for (const auto &File : Files) {
    std::ifstream In(File);
    if (!In) {
      std::cerr << "cannot open " << File << "\n";
      return false;
    }
    std::stringstream Buf;
    Buf << In.rdbuf();
    BatchItem It;
    It.Name = File.filename().string();
    It.Category = File.parent_path().filename().string();
    It.Source = Buf.str();
    It.Entry = Entry;
    Items.push_back(std::move(It));
  }
  return true;
}

int runBatch(const std::string &Target, const AnalyzerConfig &Cli,
             const std::string &Entry, bool ShowStats,
             bool ShowOutcomes, const std::string &StorePath,
             bool ExpectStoreHits, bool Profile) {
  std::vector<BatchItem> Items;
  std::vector<const BenchProgram *> Truth;
  if (!batchItems(Target, Entry, Items, Truth))
    return usage();
  if (Items.empty()) {
    std::cerr << "batch target " << Target << " has no programs\n";
    return 1;
  }

  BatchOptions Opt;
  Opt.Threads = Cli.Threads == 0 ? 1 : Cli.Threads;
  // Honor the per-program CLI knobs on top of the batch defaults
  // (deadline-free, tightened group fuel — see batchProgramConfig).
  Opt.Program.Modular = Cli.Modular;
  Opt.Program.Solve.EnableAbduction = Cli.Solve.EnableAbduction;
  Opt.Program.Solve.EnableCondTerm = Cli.Solve.EnableCondTerm;
  Opt.Profile = Profile;

  // Persistent spec store: load (or cold-start) the file and remember
  // the previous run's outcomes digest for the --expect-store-hits
  // replay check.
  std::unique_ptr<SpecStore> Store;
  uint64_t PrevCount = 0, PrevHash = 0;
  bool HavePrevDigest = false;
  if (!StorePath.empty()) {
    Store = std::make_unique<SpecStore>(
        SpecStore::configFingerprint(Opt.Program));
    std::string Err;
    if (!Store->load(StorePath, &Err)) {
      std::cerr << Err << "\n";
      return 1;
    }
    HavePrevDigest = Store->outcomesDigest(PrevCount, PrevHash);
    Opt.Store = Store.get();
  }
  BatchAnalyzer BA(Opt);
  BatchResult R = BA.run(Items);

  if (ShowOutcomes)
    std::cout << R.renderOutcomes();
  std::cout << "Batch: " << Items.size() << " programs, " << R.Threads
            << " thread(s)\n\n";
  std::cout << R.table();

  unsigned Unsound = 0, Failed = 0;
  for (size_t I = 0; I < Truth.size(); ++I)
    if (!soundAnswer(*Truth[I], R.Programs[I].Verdict))
      ++Unsound;
  for (const BatchProgramResult &P : R.Programs)
    if (!P.Result.Ok)
      ++Failed;
  if (!Truth.empty())
    std::cout << "\nground truth: " << Unsound << " unsound answer(s)\n";
  if (R.CondTermEnabled)
    std::cout << "cond-term: emitted=" << R.CondTerm.Emitted
              << " sound=" << R.CondTerm.Sound
              << " demoted=" << R.CondTerm.Demoted
              << " nontrivial=" << R.CondTerm.NonTrivial
              << " leaves_certified=" << R.CondTerm.LeavesCertified << "\n";
  if (Failed)
    std::cout << Failed << " program(s) failed to parse/resolve\n";

  std::cout << "wall time: " << R.Millis << " ms ("
            << (R.Millis > 0 ? double(Items.size()) / (R.Millis / 1000.0)
                             : 0.0)
            << " programs/s)\n";
  if (Profile)
    std::cout << "\n" << R.profileTable();
  if (ShowStats) {
    // Groups that ran inference vs. replayed an entry (stored, or
    // inserted earlier in this run — so also without --store), then the
    // solver counters summed over every context (sat queries, DNF
    // expansions, LP) and the intern-table footprint — the counters a
    // soak regression shows up in first.
    std::cout << "groups: inferred=" << R.StoreMisses
              << " replayed=" << R.StoreHits << "\n";
    const SolverStats &S = R.Usage;
    std::cout << "solver: sat_queries=" << S.SatQueries
              << " dnf_queries=" << S.DnfQueries
              << " lp_solves=" << S.LpSolves
              << " lp_pivots=" << S.LpPivots
              << " lp_overflows=" << S.LpOverflows << "\n";
    ArithIntern &I = ArithIntern::global();
    std::cout << "intern: formulas=" << I.formulaCount()
              << " arena_bytes=" << I.arenaBytes() << "\n";
  }
  unsigned StoreFailures = 0;
  if (Store) {
    // Replay / persistence epilogue: record this run's outcomes digest,
    // then publish atomically.
    std::string Rendered = R.renderOutcomes();
    uint64_t Hash = SpecStore::fnv1a(Rendered);
    if (ExpectStoreHits) {
      // The warm-run fence of the store round-trip smoke: every group
      // of every program replays from the store, zero re-runs, and the
      // rendered outcomes are byte-identical to the producing run's
      // (compared by digest, so the check crosses processes).
      size_t Groups = 0;
      for (const BatchProgramResult &P : R.Programs)
        Groups += P.Result.GroupCount;
      if (R.StoreMisses != 0 || R.StoreHits != Groups) {
        std::cerr << "expected every group from the store: hits="
                  << R.StoreHits << "/" << Groups
                  << " misses=" << R.StoreMisses << "\n";
        ++StoreFailures;
      }
      if (!HavePrevDigest || PrevCount != Items.size() ||
          PrevHash != Hash) {
        std::cerr << "replayed outcomes differ from the stored run "
                  << "(digest mismatch)\n";
        ++StoreFailures;
      }
    }
    Store->setOutcomesDigest(Items.size(), Hash);
    std::string Err;
    if (!Store->save(StorePath, &Err)) {
      std::cerr << Err << "\n";
      ++StoreFailures;
    }
    if (ShowStats) {
      SpecStoreStats SS = Store->stats();
      std::cout << "spec store: entries=" << SS.Entries
                << " loaded=" << SS.LoadedGroups << " hits=" << SS.Hits
                << " misses=" << SS.Misses << " inserts=" << SS.Inserts
                << (SS.LoadDiscarded ? " (stale file discarded)" : "")
                << "\n";
    }
  }

  // Unsound answers are a hard failure (the paper's re-verification
  // claim is the repo's core soundness property) — and so are front-end
  // failures: a parse-broken slice answers Unknown everywhere, which
  // soundAnswer() accepts, and the CI batch-smoke fence would otherwise
  // stay green on a fully broken front end.
  return (Unsound == 0 && Failed == 0 && StoreFailures == 0) ? 0 : 1;
}

/// The self-driving server smoke: 8 in-process clients drive \p N
/// corpus-variant program requests through the server in waves (one
/// request per client per wave), then check every fence of the
/// long-lived regime: each response is ok and byte-identical to a fresh
/// session run of the same source; reclaims ran and dropped something;
/// the interned arena and formula count stay bounded across reclaim
/// epochs; nothing was load-shed, fell back to global-region ids, or
/// grew the shared VarPool (sessions are private); and, once programs
/// repeat, the spec store replayed groups. Exit 0 only when all hold.
int runServeSmoke(unsigned N) {
  const unsigned Clients = 8;
  ServerOptions SO;
  // Two waves per epoch: the cadence is crossed by the last request of
  // a wave, so every reclaim runs once the wave is done and each sample
  // below is the footprint right after a reclaim, not a mid-epoch mix
  // of retained terms and garbage that depends on the schedule.
  SO.ReclaimEvery = 2 * Clients;

  std::vector<BatchItem> Items = corpusBatchItems(20);
  std::vector<std::string> Sources(N), Responses(N);
  for (unsigned I = 0; I < N; ++I)
    Sources[I] = soakVariantSource(Items[I % Items.size()].Source, I);
  const size_t PoolBefore = VarPool::get().size();
  const uint64_t FallbacksBefore = VarPool::get().scopedFallbacks();

  AnalysisServer Server(SO);
  std::vector<size_t> ArenaSamples, FormulaSamples;
  uint64_t SampledReclaims = 0;
  for (unsigned First = 0; First < N; First += Clients) {
    std::vector<std::thread> Threads;
    for (unsigned Idx = First; Idx < std::min(N, First + Clients); ++Idx)
      Threads.emplace_back([&Server, &Sources, &Responses, Idx] {
        Responses[Idx] =
            Server.submitAndWait(soakRequestJson(Idx, Sources[Idx]));
      });
    for (std::thread &T : Threads)
      T.join();
    // One sample per reclaim epoch, as the fence expects.
    ServerStats S = Server.stats();
    if (S.Reclaims != SampledReclaims) {
      SampledReclaims = S.Reclaims;
      ArenaSamples.push_back(S.InternArenaBytes);
      FormulaSamples.push_back(S.InternFormulas);
    }
  }

  // Byte-identity: every response must equal the one a fresh session
  // run of the same source renders — concurrency and warmth may only
  // change which requests computed answers and which reused them,
  // never the bytes.
  unsigned Failures = 0;
  for (unsigned Idx = 0; Idx < N; ++Idx) {
    RequestOutcome Fresh =
        runProgramRequest(Sources[Idx], "main", SO.Program);
    if (Fresh.Failed || Responses[Idx] != "{\"id\":" + std::to_string(Idx) +
                                              "," + Fresh.Body + "}") {
      std::cerr << "response " << Idx
                << " failed or differs from a fresh run: " << Responses[Idx]
                << "\n";
      ++Failures;
    }
  }

  ServerStats S = Server.stats();
  std::cout << "serve-smoke: " << N - Failures << "/" << N
            << " ok responses, " << Clients << " clients, reclaims="
            << S.Reclaims << " last_dropped=" << S.LastReclaim.dropped()
            << " shed=" << Server.shedCount()
            << " arena_bytes=" << S.InternArenaBytes
            << " store_hits=" << S.StoreHits
            << " store_misses=" << S.StoreMisses << "\n";
  if (N >= SO.ReclaimEvery &&
      (S.Reclaims == 0 || S.LastReclaim.dropped() == 0)) {
    std::cerr << "reclamation never dropped anything\n";
    ++Failures;
  }
  if (Server.shedCount() != 0) {
    std::cerr << "unexpected load-shed under an unsaturated queue\n";
    ++Failures;
  }
  // Requests past the first Items.size() repeat a program's content,
  // so the server's spec store must have replayed some group.
  if (N > Items.size() && S.StoreHits == 0) {
    std::cerr << "no group replayed from the server's spec store\n";
    ++Failures;
  }
  if (VarPool::get().scopedFallbacks() != FallbacksBefore) {
    std::cerr << "requests fell back to global-region ids\n";
    ++Failures;
  }
  if (VarPool::get().size() != PoolBefore) {
    std::cerr << "shared VarPool grew during a session-only soak: "
              << PoolBefore << " -> " << VarPool::get().size() << "\n";
    ++Failures;
  }
  // Bounded-arena fence (soakSamplesBounded: peak-to-peak with
  // disjoint warmup/final windows — see AnalysisServer.h). Gated on
  // the collected sample count itself, so "not enough soak" can never
  // be misreported as a leak; the ctest invocation (300 requests, 18
  // epochs) always exercises the fence.
  auto bounded = [&](const std::vector<size_t> &Samples, const char *What) {
    if (Samples.size() < SoakMinSamples || soakSamplesBounded(Samples))
      return;
    std::cerr << What << " kept growing after warmup: ";
    for (size_t V : Samples)
      std::cerr << V << " ";
    std::cerr << "\n";
    ++Failures;
  };
  bounded(ArenaSamples, "arena bytes");
  bounded(FormulaSamples, "formula count");
  return Failures == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Path, Entry = "main", BatchTarget, StorePath, ServeSocket,
      TraceOut;
  bool ShowStats = false, Batch = false, ShowOutcomes = false, Serve = false, ExpectStoreHits = false,
       Profile = false;
  unsigned ServeSmoke = 0, ReclaimEvery = 64,
           ServeWorkers = 4, ServeQueue = 64;
  AnalyzerConfig Config;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      printUsage(std::cout);
      return 0;
    } else if (Arg == "--monolithic")
      Config.Modular = false;
    else if (Arg == "--no-abduction")
      Config.Solve.EnableAbduction = false;
    else if (Arg == "--cond-term")
      Config.Solve.EnableCondTerm = true;
    else if (Arg == "--entry" && I + 1 < Argc)
      Entry = Argv[++I];
    else if (Arg == "--batch") {
      if (I + 1 >= Argc) {
        std::cerr << "option --batch requires a target\n";
        return 2;
      }
      Batch = true;
      BatchTarget = Argv[++I];
    } else if (Arg == "--serve")
      Serve = true;
    else if (Arg == "--serve-smoke") {
      if (I + 1 >= Argc) {
        std::cerr << "option --serve-smoke requires a request count\n";
        return 2;
      }
      char *End = nullptr;
      unsigned long V = std::strtoul(Argv[++I], &End, 10);
      if (End == Argv[I] || *End != '\0' || V == 0) {
        std::cerr << "invalid --serve-smoke value '" << Argv[I] << "'\n";
        return 2;
      }
      ServeSmoke = static_cast<unsigned>(V);
    } else if (Arg == "--serve-socket") {
      if (I + 1 >= Argc) {
        std::cerr << "option --serve-socket requires a path\n";
        return 2;
      }
      ServeSocket = Argv[++I];
    } else if (Arg == "--serve-workers") {
      if (I + 1 >= Argc) {
        std::cerr << "option --serve-workers requires a value\n";
        return 2;
      }
      char *End = nullptr;
      unsigned long V = std::strtoul(Argv[++I], &End, 10);
      if (End == Argv[I] || *End != '\0' || V == 0) {
        std::cerr << "invalid --serve-workers value '" << Argv[I] << "'\n";
        return 2;
      }
      ServeWorkers = static_cast<unsigned>(V);
    } else if (Arg == "--serve-queue") {
      if (I + 1 >= Argc) {
        std::cerr << "option --serve-queue requires a value\n";
        return 2;
      }
      char *End = nullptr;
      unsigned long V = std::strtoul(Argv[++I], &End, 10);
      if (End == Argv[I] || *End != '\0' || V == 0) {
        std::cerr << "invalid --serve-queue value '" << Argv[I] << "'\n";
        return 2;
      }
      ServeQueue = static_cast<unsigned>(V);
    } else if (Arg == "--reclaim-every") {
      if (I + 1 >= Argc) {
        std::cerr << "option --reclaim-every requires a value\n";
        return 2;
      }
      char *End = nullptr;
      unsigned long V = std::strtoul(Argv[++I], &End, 10);
      if (End == Argv[I] || *End != '\0') {
        std::cerr << "invalid --reclaim-every value '" << Argv[I] << "'\n";
        return 2;
      }
      ReclaimEvery = static_cast<unsigned>(V);
    } else if (Arg == "--store") {
      if (I + 1 >= Argc) {
        std::cerr << "option --store requires a file path\n";
        return 2;
      }
      StorePath = Argv[++I];
    } else if (Arg == "--expect-store-hits")
      ExpectStoreHits = true;
    else if (Arg == "--profile")
      Profile = true;
    else if (Arg == "--trace-out") {
      if (I + 1 >= Argc) {
        std::cerr << "option --trace-out requires a file path\n";
        return 2;
      }
      TraceOut = Argv[++I];
    }
    else if (Arg == "--outcomes")
      ShowOutcomes = true;
    else if (Arg == "--threads") {
      if (I + 1 >= Argc) {
        std::cerr << "option --threads requires a value\n";
        return 2;
      }
      char *End = nullptr;
      unsigned long N = std::strtoul(Argv[++I], &End, 10);
      if (End == Argv[I] || *End != '\0') {
        std::cerr << "invalid --threads value '" << Argv[I] << "'\n";
        return 2;
      }
      Config.Threads = static_cast<unsigned>(N);
    }
    else if (Arg == "--stats")
      ShowStats = true;
    else if (!Arg.empty() && Arg[0] == '-') {
      std::cerr << "unknown option " << Arg << "\n";
      return 2;
    } else {
      Path = Arg;
    }
  }

  // Tracing wraps every mode: collection starts before any analysis,
  // and the epilogue writes the Chrome trace file and SELF-VALIDATES
  // it (re-parse, require a traceEvents array) — the trace-smoke fence
  // is "the tool never writes a file Perfetto would reject". A trace
  // failure fails the run only through the epilogue's own exit code;
  // the analysis output above it is already complete and untouched.
  if (!TraceOut.empty())
    trace::start();
  auto Finish = [&TraceOut](int RC) {
    if (TraceOut.empty())
      return RC;
    trace::stop();
    std::string Err;
    if (!trace::writeJson(TraceOut, &Err)) {
      std::cerr << "trace: " << Err << "\n";
      return RC == 0 ? 1 : RC;
    }
    std::ifstream In(TraceOut);
    std::stringstream Buf;
    Buf << In.rdbuf();
    std::optional<json::Value> V = json::parse(Buf.str(), &Err);
    const json::Value *Events =
        V && V->isObject() ? V->field("traceEvents") : nullptr;
    if (Events == nullptr || !Events->isArray()) {
      std::cerr << "trace: " << TraceOut
                << " is not valid Chrome trace JSON\n";
      return RC == 0 ? 1 : RC;
    }
    return RC;
  };

  if (ServeSmoke != 0)
    return Finish(runServeSmoke(ServeSmoke));
  if (Serve || !ServeSocket.empty()) {
    ServerOptions SO;
    SO.ReclaimEvery = ReclaimEvery;
    SO.Program.Modular = Config.Modular;
    SO.Program.Solve.EnableAbduction = Config.Solve.EnableAbduction;
    SO.Program.Solve.EnableCondTerm = Config.Solve.EnableCondTerm;
    SO.StorePath = StorePath;
    // stdin answers one line at a time, so one worker is all it uses.
    SO.Workers = ServeSocket.empty() ? 1 : ServeWorkers;
    SO.QueueDepth = ServeQueue;
    SO.SocketPath = ServeSocket;
    AnalysisServer Server(std::move(SO));
    if (ServeSocket.empty())
      return Finish(Server.serve(std::cin, std::cout));
    std::string Err;
    int RC = Server.serveSocket(&Err);
    if (!Err.empty())
      std::cerr << Err << "\n";
    return Finish(RC);
  }
  if (Batch)
    return Finish(runBatch(BatchTarget, Config, Entry, ShowStats, ShowOutcomes,
                           StorePath, ExpectStoreHits, Profile));
  if (Path.empty())
    return usage();

  std::ifstream In(Path);
  if (!In) {
    std::cerr << "cannot open " << Path << "\n";
    return 2;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();

  // Single-program spec store: summaries persist across invocations.
  std::unique_ptr<SpecStore> Store;
  if (!StorePath.empty()) {
    Store =
        std::make_unique<SpecStore>(SpecStore::configFingerprint(Config));
    std::string Err;
    if (!Store->load(StorePath, &Err)) {
      std::cerr << Err << "\n";
      return 1;
    }
    Config.Store = Store.get();
  }

  AnalysisResult R = analyzeProgram(Buf.str(), Config);
  if (Store) {
    std::string Err;
    if (!Store->save(StorePath, &Err)) {
      // A failed save is a failed run — same rule as batch and server
      // modes; scripts must not believe the specs were persisted.
      std::cerr << Err << "\n";
      return 1;
    }
  }
  if (!R.Ok) {
    std::cerr << R.Diagnostics;
    return Finish(1);
  }
  std::cout << R.str();
  if (R.find(Entry))
    std::cout << "entry '" << Entry
              << "': " << outcomeStr(R.outcome(Entry)) << "\n";
  std::cout << "time: " << R.Millis << " ms, solver queries: " << R.FuelUsed
            << "\n";
  if (ShowStats) {
    const SolverStats &S = R.SolverUsage;
    std::cout << "solver stats: groups=" << R.GroupCount
              << " threads=" << Config.Threads
              << " sat_queries=" << S.SatQueries
              << " dnf_queries=" << S.DnfQueries
              << " lp_solves=" << S.LpSolves
              << " lp_pivots=" << S.LpPivots
              << " lp_overflows=" << S.LpOverflows << "\n";
  }
  return Finish(0);
}
